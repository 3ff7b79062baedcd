package server

// Benchmarks for the encode-once egress plane. BenchmarkTenantRecord is
// the record path itself: one dispatch encoded into the tenant's log.
// BenchmarkDispatchFanout measures the shared-bytes path: one op logs a
// 64-record batch exactly once and fans the chunk's bytes out to N
// subscribers; its cold-N rows are an in-memory tenant's log, whose N
// subscribers each render the records into their own buffer.
// BenchmarkDispatchFanoutEncode is the pre-PR-10 baseline the wire rows
// replaced — every subscriber runs its own json.Encoder over every record
// — so the acceptance ratio (allocs/op and ns/op-per-subscriber at 64
// subs) is read straight off `go test -bench 'DispatchFanout' -benchmem`.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
	"desyncpfair/internal/wal"
)

// benchEvents builds a representative 64-record dispatch batch.
func benchEvents() []DispatchEvent {
	evs := make([]DispatchEvent, 64)
	for i := range evs {
		evs[i] = DispatchEvent{
			Seq:       int64(i),
			Task:      fmt.Sprintf("task-%d", i%8),
			Index:     int64(i / 8),
			Proc:      i % 4,
			Start:     fmt.Sprintf("%d", i),
			Finish:    fmt.Sprintf("%d", i+1),
			Deadline:  int64(i + 2),
			Tardiness: "0",
		}
	}
	return evs
}

// BenchmarkTenantRecord is what a tenant spends per dispatch beyond the
// engine: Tenant.record — the frame encoded into the log's tail, the lag
// tallied — plus, every 16 dispatches, what a command that decided spends
// once: its trace event and its settle (the lag histograms, publish and,
// with a subscriber, closing the channel it waits on, which it then takes
// again as a waiting stream would). The loop also works out each decision's
// deadline and tardiness, which the executive hands record. The target is
// 0 allocs/op: what a command allocates (its snapshot, its event's lag
// string) is a sixteenth of that here. The log restarts every 65536
// dispatches, in the tenant's own form, so any -benchtime fits in memory.
//
// 0subs and 1subs run an in-memory tenant, whose log encodes each
// decision's compact record only (dispatchlog.go). journaled builds the
// tenant journaled, whose log encodes the frame, and hooks it into a real
// wal.Log in b.TempDir() at FsyncEvery
// 64 and, like the handler of the command that dispatched, waits on the
// journal after every settle, so the group-commit fsyncs its dispatch
// journaling buys are inside the number; journal-B/op is what one
// decision adds to the WAL.
func BenchmarkTenantRecord(b *testing.B) {
	run := func(b *testing.B, tn *Tenant, task *model.Task, settled func()) {
		tn.publish()
		sub := &model.Subtask{Task: task}
		d := online.Dispatch{Sub: sub, Proc: 1, Finish: rat.FromInt(1000)}
		b.ReportAllocs()
		b.ResetTimer()
		first := tn.log.len()
		for n := 0; n < b.N; n++ {
			sub.Index++
			d.Start, d.Finish = d.Finish, d.Finish.Add(rat.One)
			d.Deadline = sub.Deadline()
			d.Tardiness = sched.Tardiness(d.Finish, d.Deadline)
			tn.record(d)
			if n%16 == 15 {
				tn.obs.tr.Dispatch(first, tn.log.len()-first, tn.worst)
				tn.settle()
				settled()
				first = tn.log.len()
			}
			if n&(1<<16-1) == 1<<16-1 {
				tn.log = dispatchLog{cold: tn.log.cold, tasks: tn.log.tasks}
				tn.publish()
				first = 0
			}
		}
	}
	newCore := func(b *testing.B, journaled bool) (*Tenant, *model.Task) {
		ex := online.New(2, nil)
		task, err := ex.Register("task-0", model.W(1, 2))
		if err != nil {
			b.Fatal(err)
		}
		tn := newTenantCore("bench", "PD2", ex, nil, journaled) // loop not started: this goroutine is the writer
		if tn.log.cold == journaled {
			b.Fatalf("journaled %v built a log with cold %v", journaled, tn.log.cold)
		}
		return tn, task
	}
	for _, subs := range []int{0, 1} {
		b.Run(fmt.Sprintf("%dsubs", subs), func(b *testing.B) {
			tn, task := newCore(b, false)
			settled := func() {}
			if subs == 1 {
				settled = func() { tn.Subscribe() }
				settled()
			}
			run(b, tn, task, settled)
		})
	}
	b.Run("journaled", func(b *testing.B) {
		AtProductionSegments(b)
		dir := b.TempDir()
		l, _, err := wal.Open(dir, wal.Options{FsyncEvery: 64})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		tn, task := newCore(b, true)
		tn.SetJournal(l.AppendAsync, l.AppendBatch, l.Fail)
		run(b, tn, task, func() {
			if err := l.Wait(wal.Commit{LSN: l.WrittenLSN()}); err != nil {
				b.Fatal(err)
			}
		})
		b.StopTimer()
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			b.Fatal(err)
		}
		var size int64
		for _, seg := range segs {
			fi, err := os.Stat(seg)
			if err != nil {
				b.Fatal(err)
			}
			size += fi.Size()
		}
		b.ReportMetric(float64(size)/float64(b.N), "journal-B/op")
	})
}

// TestTenantRecordAllocs pins the per-decision hook at zero allocations,
// in either form of the log and for a tardy decision too: a lag's string
// is rendered once per command, for its trace event, never per decision.
// (A chunk the log grows by, in either form, is amortised over
// hundreds of frames, well under one per call.)
func TestTenantRecordAllocs(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		ex := online.New(2, nil)
		task, err := ex.Register("task-0", model.W(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		tn := newTenantCore("allocs", "PD2", ex, nil, journaled)
		tn.publish()
		sub := &model.Subtask{Task: task}
		d := online.Dispatch{Sub: sub, Proc: 1}
		for _, late := range []rat.Rat{rat.Zero, rat.New(1, 2), rat.New(5, 7)} {
			if allocs := testing.AllocsPerRun(1000, func() {
				sub.Index++
				d.Deadline = sub.Deadline()
				d.Finish = rat.FromInt(d.Deadline).Add(late)
				d.Start, d.Tardiness = d.Finish.Sub(rat.One), late
				tn.record(d)
			}); allocs != 0 {
				t.Errorf("journaled %v, record at tardiness %s: %v allocations per call, want 0", journaled, late, allocs)
			}
			tn.settle()
		}
	}
}

func BenchmarkDispatchFanout(b *testing.B) {
	evs := benchEvents()
	for _, cold := range []bool{false, true} {
		for _, subs := range []int{1, 8, 64} {
			name := fmt.Sprintf("%dsubs", subs)
			if cold {
				name = "cold-" + name
			}
			b.Run(name, func(b *testing.B) {
				writers := make([]*frameWriter, subs)
				bufs := make([][]byte, subs)
				for i := range writers {
					w := discardResponseWriter{}
					writers[i] = &frameWriter{w: w, rc: http.NewResponseController(w)}
				}
				times := make([][2]rat.Rat, len(evs))
				for i, ev := range evs {
					times[i][0], _ = rat.Parse(ev.Start)
					times[i][1], _ = rat.Parse(ev.Finish)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					// Log once — the tenant loop's side of the contract —
					// then every subscriber writes the same bytes by
					// reference, or, from a cold log, renders its own.
					log := dispatchLog{cold: cold}
					for i, ev := range evs {
						log.name(i%8, ev.Task, model.W(1, 8))
						log.append(i%8, ev.Task, ev.Index, ev.Proc, times[i][0], times[i][1], ev.Deadline, rat.Zero)
					}
					for i, fw := range writers {
						frames, _ := log.frames(&bufs[i], 0, len(evs))
						if _, err := fw.Write(frames); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkDispatchFanoutEncode is the replaced design: no shared cache,
// each subscriber encodes every record itself.
func BenchmarkDispatchFanoutEncode(b *testing.B) {
	evs := benchEvents()
	for _, subs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%dsubs", subs), func(b *testing.B) {
			encs := make([]*json.Encoder, subs)
			for i := range encs {
				encs[i] = json.NewEncoder(io.Discard)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, enc := range encs {
					for _, ev := range evs {
						if err := enc.Encode(ev); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// discardResponseWriter is the minimal ResponseWriter the frameWriter
// needs in a benchmark: writes vanish, there is no Flusher and no
// deadline support, exactly like an httptest recorder.
type discardResponseWriter struct{}

func (discardResponseWriter) Header() http.Header         { return nil }
func (discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponseWriter) WriteHeader(int)             {}

// BenchmarkMetricsExposition measures a full /metrics render on the
// pooled strconv.Append* path, over a server with eight live tenants.
func BenchmarkMetricsExposition(b *testing.B) {
	s := New()
	defer s.Close()
	for i := 0; i < 8; i++ {
		t, err := newTenant(fmt.Sprintf("bench-%d", i), 2, "", s.obs, false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err = s.addTenant(t); err != nil {
			b.Fatal(err)
		}
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		buf = s.appendExposition(buf[:0])
	}
	if len(buf) == 0 {
		b.Fatal("empty exposition")
	}
}
