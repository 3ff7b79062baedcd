package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/wal"
)

// submitEntry is one of the three ways a job submit reaches applySubmits:
// alone, inside a coalesced run of single submits, or inside an atomic
// batch. submit hands reqs over in one call of that kind and returns one
// result per request.
type submitEntry struct {
	name   string
	submit func(tn *Tenant, reqs []SubmitJobRequest) []cmdResult
}

func runOf(tn *Tenant, reqs []SubmitJobRequest) []cmdResult {
	cmds := make([]*command, len(reqs))
	for i, req := range reqs {
		cmds[i] = &command{job: req.job(), done: make(chan cmdResult, 1)}
	}
	tn.processSubmitRun(cmds)
	out := make([]cmdResult, len(cmds))
	for i, c := range cmds {
		out[i] = <-c.done
	}
	return out
}

var submitEntries = []submitEntry{
	{"single", func(tn *Tenant, reqs []SubmitJobRequest) []cmdResult {
		var out []cmdResult
		for _, req := range reqs {
			out = append(out, runOf(tn, []SubmitJobRequest{req})...)
		}
		return out
	}},
	{"run", runOf},
	{"batch", func(tn *Tenant, reqs []SubmitJobRequest) []cmdResult {
		results := make([]SubmitJobResponse, len(reqs))
		res := processFn(tn, func() (wal.Commit, error) { return tn.applySubmitBatch(jobsOf(reqs), results) })
		out := make([]cmdResult, len(reqs))
		for i := range out {
			out[i] = cmdResult{commit: res.commit, err: res.err}
			if res.err == nil {
				out[i].submit = results[i]
			}
		}
		return out
	}},
}

// idemTenant is a not-started tenant core with one task of weight 1/2 and
// a journal that counts the jobs of the job-submit records it is handed.
func idemTenant(t *testing.T) (tn *Tenant, journaled *int) {
	tn = newWritePathCore(t, "idem", 1, nil, true)
	journaled = new(int)
	lsn := uint64(0)
	tn.SetJournal(
		func(r wal.Record) (wal.Commit, error) {
			lsn++
			*journaled += r.Weight()
			return wal.Commit{LSN: lsn}, nil
		},
		nil,
		func(err error) { t.Errorf("journal wedged: %v", err) },
	)
	tn.publish()
	var d admission.Decision
	res := processFn(tn, func() (c wal.Commit, err error) {
		d, c, err = tn.applyRegister("a", model.W(1, 2))
		return c, err
	})
	if res.err != nil || !d.Admitted {
		t.Fatalf("register: %+v %+v", res, d)
	}
	*journaled = 0
	return tn, journaled
}

// TestSubmitIdempotencyEdges runs one table of keyed-submit situations
// through all three entry points. want has one letter per request and
// entry point: A applied (journaled, fresh response, non-zero commit),
// C cached (the original response, zero commit, nothing journaled),
// E error (nothing journaled). The singles front ends dedupe per command;
// the batch is all-or-nothing, so a batch that repeats a key or replays
// only some of its keys is refused whole.
func TestSubmitIdempotencyEdges(t *testing.T) {
	long := strings.Repeat("k", MaxKeyLen+1)
	key := func(keys ...string) []SubmitJobRequest {
		reqs := make([]SubmitJobRequest, len(keys))
		for i, k := range keys {
			reqs[i] = SubmitJobRequest{Task: "a", Key: k}
		}
		return reqs
	}
	for _, tc := range []struct {
		name  string
		prior []string // keys applied beforehand, one single submit each
		reqs  []SubmitJobRequest
		want  map[string]string // by entry point
	}{
		{"fresh key", nil, key("k1"), map[string]string{"single": "A", "run": "A", "batch": "A"}},
		{"replayed key", []string{"k1"}, key("k1"), map[string]string{"single": "C", "run": "C", "batch": "C"}},
		{"no key twice", nil, key("", ""), map[string]string{"single": "AA", "run": "AA", "batch": "AA"}},
		{"one key twice in one call", nil, key("k1", "k1"), map[string]string{"single": "AC", "run": "AC", "batch": "EE"}},
		{"one key three times in one call", nil, key("k1", "k1", "k1"), map[string]string{"single": "ACC", "run": "ACC", "batch": "EEE"}},
		{"seen key then fresh key", []string{"k1"}, key("k1", "k2"), map[string]string{"single": "CA", "run": "CA", "batch": "EE"}},
		{"seen key then no key", []string{"k1"}, key("k1", ""), map[string]string{"single": "CA", "run": "CA", "batch": "EE"}},
		{"every key replayed", []string{"k1", "k2"}, key("k1", "k2"), map[string]string{"single": "CC", "run": "CC", "batch": "CC"}},
		{"oversized key", nil, key(long), map[string]string{"single": "E", "run": "E", "batch": "E"}},
		{"oversized key beside a good one", nil, key("k1", long), map[string]string{"single": "AE", "run": "AE", "batch": "EE"}},
	} {
		for _, entry := range submitEntries {
			t.Run(tc.name+"/"+entry.name, func(t *testing.T) {
				tn, journaled := idemTenant(t)
				original := map[string]SubmitJobResponse{}
				for _, k := range tc.prior {
					res := runOf(tn, key(k))[0]
					if res.err != nil {
						t.Fatal(res.err)
					}
					original[k] = res.submit
				}
				*journaled = 0
				pending := tn.ex.Pending()

				got := entry.submit(tn, tc.reqs)
				want := tc.want[entry.name]
				applied := 0
				for i, res := range got {
					k := tc.reqs[i].Key
					switch want[i] {
					case 'A':
						applied++
						if res.err != nil || res.commit.LSN == 0 || res.submit.Pending != pending+applied {
							t.Errorf("request %d: want applied, got %+v", i, res)
						}
						if k != "" {
							original[k] = res.submit
						}
					case 'C':
						if res.err != nil || res.commit.LSN != 0 || res.submit != original[k] {
							t.Errorf("request %d: want the cached %+v at a zero commit, got %+v", i, original[k], res)
						}
					case 'E':
						if res.err == nil {
							t.Errorf("request %d: want an error, got %+v", i, res)
						}
					}
				}
				if *journaled != applied {
					t.Errorf("journaled %d jobs, want %d", *journaled, applied)
				}
				if got := tn.ex.Pending(); got != pending+applied {
					t.Errorf("pending = %d, want %d", got, pending+applied)
				}
			})
		}
	}
}

// TestIdempotencyMemoryEvictsFIFO fills the key memory one past
// MaxIdemKeys and checks, through each entry point, that exactly the
// oldest key was forgotten — and that re-applying it evicts the next
// oldest in turn.
func TestIdempotencyMemoryEvictsFIFO(t *testing.T) {
	for _, entry := range submitEntries {
		t.Run(entry.name, func(t *testing.T) {
			tn, journaled := idemTenant(t)
			k := func(i int) SubmitJobRequest { return SubmitJobRequest{Task: "a", Key: fmt.Sprintf("k%d", i)} }
			for i := 0; i <= MaxIdemKeys; i += MaxBatchJobs {
				var reqs []SubmitJobRequest
				for j := i; j < i+MaxBatchJobs && j <= MaxIdemKeys; j++ {
					reqs = append(reqs, k(j))
				}
				for _, res := range entry.submit(tn, reqs) {
					if res.err != nil {
						t.Fatal(res.err)
					}
				}
			}
			if len(tn.idem) != MaxIdemKeys || len(tn.idemQ) != MaxIdemKeys || tn.idemQ[0] != "k1" {
				t.Fatalf("memory holds %d keys (queue %d, oldest %q), want %d from k1 on", len(tn.idem), len(tn.idemQ), tn.idemQ[0], MaxIdemKeys)
			}
			for _, step := range []struct {
				key     int
				applied bool
			}{
				{1, false}, // the second-oldest key is still remembered
				{0, true},  // the oldest was forgotten: applies again, evicting k1
				{1, true},
				{MaxIdemKeys, false},
			} {
				*journaled = 0
				res := entry.submit(tn, []SubmitJobRequest{k(step.key)})[0]
				if res.err != nil {
					t.Fatal(res.err)
				}
				if applied := *journaled == 1 && res.commit.LSN != 0; applied != step.applied {
					t.Errorf("resubmitting k%d: applied = %v, want %v", step.key, applied, step.applied)
				}
			}
		})
	}
}

// TestCoalescedRunPublishesBeforeAck pins publish-then-ack on the run
// path: no command of a coalesced run completes before the published
// snapshot holds the whole run, so a client acknowledged from a run of N
// reads its own job in GET /v1/tenants/{id}. The completions are
// unbuffered here, so the loop cannot run ahead of the observer: were an
// ack sent before the publish, the observer would deterministically read
// the pre-run snapshot.
func TestCoalescedRunPublishesBeforeAck(t *testing.T) {
	tn, _ := idemTenant(t)
	const n = 5
	cmds := make([]*command, n+1)
	for i := range cmds {
		cmds[i] = &command{job: wal.Job{Name: "a", Key: fmt.Sprintf("k%d", i)}, done: make(chan cmdResult)}
	}
	cmds[n].job.Key = "k0" // a key repeated within the run rides the second pass
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		tn.processSubmitRun(cmds)
	}()
	for i, c := range cmds {
		res := <-c.done
		if res.err != nil {
			t.Fatalf("command %d: %v", i, res.err)
		}
		if got := tn.Info().Pending; got != n {
			t.Errorf("command %d completed with %d of the run's %d jobs published", i, got, n)
		}
	}
	<-loopDone
}

// TestCoalescedRunStaysWithinOneFrame: independent single submits share a
// journal record only while their names and keys stay within maxRunBytes;
// what does not fit rides the next pass, in order, in a record of its own —
// sharing a record is never what makes a submit too large to journal.
func TestCoalescedRunStaysWithinOneFrame(t *testing.T) {
	tn := newWritePathCore(t, "big", 1, nil, true)
	var groups [][]string // the keys of each journaled record
	lsn := uint64(0)
	tn.SetJournal(
		func(r wal.Record) (wal.Commit, error) {
			keys := []string{r.Key}
			if r.Op == wal.OpJobSubmit {
				if len(r.Jobs) > 0 {
					keys = keys[:0]
					for _, j := range r.Jobs {
						keys = append(keys, j.Key)
					}
				}
				groups = append(groups, keys)
			}
			lsn++
			return wal.Commit{LSN: lsn}, nil
		},
		nil,
		func(err error) { t.Errorf("journal wedged: %v", err) },
	)
	tn.publish()
	long := strings.Repeat("n", maxRunBytes/2-16)
	for _, name := range []string{"s", long} {
		var d admission.Decision
		res := processFn(tn, func() (c wal.Commit, err error) {
			d, c, err = tn.applyRegister(name, model.W(1, 4))
			return c, err
		})
		if res.err != nil || !d.Admitted {
			t.Fatalf("register: %+v %+v", res, d)
		}
	}
	res := runOf(tn, []SubmitJobRequest{
		{Task: "s", Key: "1"}, {Task: long, Key: "2"}, {Task: long, Key: "3"},
		{Task: long, Key: "4"}, {Task: "s", Key: "5"}, {Task: long, Key: "6"},
	})
	for i, r := range res {
		if r.err != nil || r.submit.Pending != i+1 {
			t.Errorf("submit %d: %+v, want pending %d", i, r, i+1)
		}
	}
	if want := [][]string{{"1", "2", "3"}, {"4", "5", "6"}}; !reflect.DeepEqual(groups, want) {
		t.Errorf("journaled groups %v, want %v", groups, want)
	}
}
