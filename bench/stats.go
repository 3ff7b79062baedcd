package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// --- scraping ---

// counters is one reading of what the servers count themselves.
type counters struct {
	cpu                        float64 // seconds, summed over every server process
	rssKB                      float64 // the leader's
	appends, fsyncs, snapshots float64 // the leader's journal
}

func scrape(ctx context.Context, hc *http.Client, cl *rig) counters {
	var c counters
	for _, n := range cl.nodes() {
		c.cpu += cpuSeconds(n.pid)
	}
	c.rssKB = statusKB(cl.leader.pid, "VmRSS")
	text, err := getBody(ctx, hc, cl.leader.url+"/metrics")
	if err != nil {
		return c
	}
	c.appends = promValue(text, "pfaird_wal_appends_total")
	c.fsyncs = promValue(text, "pfaird_wal_fsyncs_total")
	c.snapshots = promValue(text, "pfaird_wal_snapshots_total")
	return c
}

// promValue finds an unlabelled sample in a text exposition.
func promValue(text []byte, name string) float64 {
	for _, line := range bytes.Split(text, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(name+" ")); ok {
			v, _ := strconv.ParseFloat(string(rest), 64)
			return v
		}
	}
	return 0
}

func getBody(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return raw, err
}

func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	raw, err := getBody(ctx, hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// rssSampler reads the leader's VmRSS four times a second during the load,
// so the output can show whether memory is flat or grows with history.
type rssSampler struct {
	quit, done chan struct{}
	mb         []float64
}

func startRSSSampler(pid int) *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				s.mb = append(s.mb, statusKB(pid, "VmRSS")/1024)
			}
		}
	}()
	return s
}

// stop ends the sampler and describes the series at the quarter points of
// the load.
func (s *rssSampler) stop() string {
	close(s.quit)
	<-s.done
	if len(s.mb) < 4 {
		return "leader RSS: load too short to sample"
	}
	at := func(q float64) float64 { return s.mb[int(q*float64(len(s.mb)-1))] }
	return fmt.Sprintf("leader RSS at 25/50/75/100%% of the load: %.1f / %.1f / %.1f / %.1f MB", at(0.25), at(0.5), at(0.75), at(1))
}

// --- statistics ---

// pctl is the q-quantile of v by nearest rank; 0 when empty. It sorts a
// copy: the callers keep their series in arrival order.
func pctl(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailNote reports the highest percentile that still has at least ten
// samples beyond it, with the sample count, as the metrics guide asks.
func tailNote(v []int64) string {
	n := len(v)
	for _, q := range []float64{0.9999, 0.999, 0.99, 0.9} {
		if float64(n)*(1-q) >= 10 {
			return fmt.Sprintf("p%g = %.1f us over %d samples", q*100, float64(pctl(v, q))/1e3, n)
		}
	}
	return fmt.Sprintf("%d samples: too few for a tail percentile", n)
}

// stalls finds the requests that took more than 20× their kind's median:
// compaction pauses and the like, seen from outside. It returns their
// summed duration in seconds and the longest in milliseconds.
func stalls(recs []*recorder) (total, maxMs float64) {
	for _, r := range recs {
		for _, k := range []opKind{kSubmit, kBatch, kAdvance} {
			limit := 20 * pctl(r.lat[k], 0.5)
			for _, d := range r.lat[k] {
				if d > limit {
					total += float64(d) / 1e9
					if ms := float64(d) / 1e6; ms > maxMs {
						maxMs = ms
					}
				}
			}
		}
	}
	return total, maxMs
}

// windowsNote splits a series, kept in arrival order, into n equal parts
// and prints each part's median in microseconds: a slow spell of the host
// shows as a run of high values, in the reference series too.
func windowsNote(v []int64, n int) string {
	var b []byte
	for i := 0; i < n; i++ {
		if lo, hi := i*len(v)/n, (i+1)*len(v)/n; hi > lo {
			b = strconv.AppendInt(append(b, ' '), pctl(v[lo:hi], 0.5)/1e3, 10)
		}
	}
	return string(b)
}
