package server

import (
	"fmt"
	"reflect"
	"strconv"
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
			if q := tn.idem.entries(); len(q) != MaxIdemKeys || q[0].Key != "k1" {
				t.Fatalf("memory holds %d keys (oldest %q), want %d from k1 on", len(q), q[0].Key, MaxIdemKeys)
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

// idemModel is the idempotency memory as a map and a FIFO of keys: what
// idemMemory replaced, kept as FuzzIdemMemory's reference.
type idemModel struct {
	resp map[string]SubmitJobResponse
	fifo []string
}

func (m *idemModel) remember(key string, resp SubmitJobResponse) {
	if _, ok := m.resp[key]; ok || key == "" {
		return
	}
	if len(m.fifo) >= MaxIdemKeys {
		delete(m.resp, m.fifo[0])
		m.fifo = m.fifo[1:]
	}
	m.resp[key] = resp
	m.fifo = append(m.fifo, key)
}

// FuzzIdemMemory drives idemMemory and idemModel with one stream of
// operations — a key from a small set remembered or looked up, a burst of
// fresh keys that pushes the memory past MaxIdemKeys, a checkpoint restored
// into a fresh memory — and requires the same answer to every lookup, the
// same size, and the same entries in the same order, which is what a
// checkpoint's idem list is.
func FuzzIdemMemory(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 3, 1})
	f.Add([]byte{2, 127, 2, 127, 1, 5, 3, 0, 7, 1, 7})
	f.Add([]byte{4, 9, 2, 60, 8, 9, 6, 200, 2, 255, 3, 1, 9, 0, 3})
	f.Add([]byte{2, 31, 2, 31, 2, 31, 2, 31, 2, 31, 3, 0, 2, 31}) // 6 144 fresh keys: 2 048 evicted
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 512)]
		var m idemMemory
		model := idemModel{resp: map[string]SubmitJobResponse{}}
		fresh := 0
		// key names one of 64 keys of lengths 0 to MaxKeyLen; "" is never
		// remembered.
		key := func(b byte) string {
			if b%64 == 0 {
				return ""
			}
			return fmt.Sprintf("k%d-%s", b%64, strings.Repeat("x", int(b%64)*(MaxKeyLen-4)/63))
		}
		resp := func(b byte) SubmitJobResponse {
			return SubmitJobResponse{At: strings.Repeat("7", int(b%23)) + "/2", Pending: int(b) * 4099}
		}
		check := func(op int) {
			t.Helper()
			got := m.entries()
			if len(got) != len(model.fifo) {
				t.Fatalf("op %d: memory holds %d keys, model %d", op, len(got), len(model.fifo))
			}
			for i, e := range got {
				if k := model.fifo[i]; e.Key != k || (SubmitJobResponse{At: e.At, Pending: e.Pending}) != model.resp[k] {
					t.Fatalf("op %d: entry %d is %+v, model %q %+v", op, i, e, k, model.resp[k])
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			b := ops[i+1]
			switch ops[i] % 4 {
			case 0:
				m.remember(key(b), resp(ops[i]))
				model.remember(key(b), resp(ops[i]))
			case 1:
				got, ok := m.lookup(key(b))
				want, wantOK := model.resp[key(b)]
				if ok != wantOK || got != want || (m.find(key(b)) >= 0) != wantOK {
					t.Fatalf("op %d: lookup %q = %+v %v, model %+v %v", i, key(b), got, ok, want, wantOK)
				}
			case 2:
				for range (int(b%32) + 1) * 32 {
					fresh++
					k := "r" + strconv.Itoa(fresh) + "j" + strconv.Itoa(fresh%7)
					m.remember(k, resp(byte(fresh)))
					model.remember(k, resp(byte(fresh)))
				}
			case 3:
				check(i)
				var restored idemMemory
				for _, e := range m.entries() {
					restored.remember(e.Key, SubmitJobResponse{At: e.At, Pending: e.Pending})
				}
				m = restored
			}
		}
		check(len(ops))
		for _, k := range model.fifo {
			if got, ok := m.lookup(k); !ok || got != model.resp[k] {
				t.Fatalf("lookup %q = %+v %v, model %+v", k, got, ok, model.resp[k])
			}
		}
	})
}

// TestRestoreRefusesMalformedIdemEntry: a checkpoint's idem entry the
// memory cannot hold as written — a key past MaxKeyLen, an at past 255
// bytes, a pending outside 0 .. 2^31-1 — fails the restore; the
// service never writes one. A well-formed list restores in order.
func TestRestoreRefusesMalformedIdemEntry(t *testing.T) {
	tn, _ := idemTenant(t)
	cp, err := tn.image()
	if err != nil {
		t.Fatal(err)
	}
	good := []idemEntry{{Key: "b", At: "5/2", Pending: 1}, {Key: strings.Repeat("a", MaxKeyLen), At: "0", Pending: 1<<31 - 1}}
	for _, bad := range []idemEntry{
		{Key: strings.Repeat("k", MaxKeyLen+1), At: "0"},
		{Key: "k", At: strings.Repeat("1", 256)},
		{Key: "k", At: "0", Pending: -1},
		{Key: "k", At: "0", Pending: 1 << 31},
	} {
		cp.Idem = append(good[:len(good):len(good)], bad)
		if _, err := restoreTenant(cp, nil); err == nil {
			t.Errorf("restored a checkpoint holding idem entry %.20q at %.20q pending %d", bad.Key, bad.At, bad.Pending)
		}
	}
	cp.Idem = good
	rt, err := restoreTenant(cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got := rt.idem.entries(); !reflect.DeepEqual(got, good) {
		t.Fatalf("restored idem %v, want %v", got, good)
	}
}
