package server

// Benchmarks for the encode-once egress plane. BenchmarkTenantRecord is
// the record path itself: one dispatch encoded into the tenant's log.
// BenchmarkDispatchFanout measures the shared-bytes path: one op logs a
// 64-record batch exactly once and fans the chunk's bytes out to N
// subscribers. BenchmarkDispatchFanoutEncode is the pre-PR-10 baseline it
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

// BenchmarkTenantRecord is Tenant.record per dispatch — tardiness, the
// frame encoded into the log's tail, the lag histograms, the trace event —
// with the per-command settle (publish and, with a subscriber, its wakeup)
// every 16 dispatches. The target is 0 allocs/op: what a command allocates
// (its snapshot) is a sixteenth of one here. The log restarts every 65536
// dispatches so any -benchtime fits in memory.
//
// 0subs and 1subs run an in-memory tenant. journaled hooks the tenant into
// a real wal.Log in b.TempDir() at FsyncEvery 64 and, like the handler of
// the command that dispatched, waits on the journal after every settle, so
// the group-commit fsyncs its dispatch journaling buys are inside the
// number; journal-B/op is what one decision adds to the WAL.
func BenchmarkTenantRecord(b *testing.B) {
	run := func(b *testing.B, tn *Tenant, task *model.Task, settled func()) {
		tn.publish()
		sub := &model.Subtask{Task: task}
		d := online.Dispatch{Sub: sub, Proc: 1, Finish: rat.FromInt(1000)}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			sub.Index++
			d.Start, d.Finish = d.Finish, d.Finish.Add(rat.One)
			tn.record(d)
			if n%16 == 15 {
				tn.settle()
				settled()
			}
			if n&(1<<16-1) == 1<<16-1 {
				tn.log = dispatchLog{}
				tn.publish()
			}
		}
	}
	newCore := func(b *testing.B) (*Tenant, *model.Task) {
		ex := online.New(2, nil)
		task, err := ex.Register("task-0", model.W(1, 2))
		if err != nil {
			b.Fatal(err)
		}
		return newTenantCore("bench", "PD2", ex, 0), task // loop not started: this goroutine is the writer
	}
	for _, subs := range []int{0, 1} {
		b.Run(fmt.Sprintf("%dsubs", subs), func(b *testing.B) {
			tn, task := newCore(b)
			for i := 0; i < subs; i++ {
				tn.Subscribe()
			}
			run(b, tn, task, func() {})
		})
	}
	b.Run("journaled", func(b *testing.B) {
		dir := b.TempDir()
		l, _, err := wal.Open(dir, wal.Options{FsyncEvery: 64})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		tn, task := newCore(b)
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

func BenchmarkDispatchFanout(b *testing.B) {
	evs := benchEvents()
	for _, subs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%dsubs", subs), func(b *testing.B) {
			writers := make([]*frameWriter, subs)
			for i := range writers {
				writers[i] = &frameWriter{w: discardResponseWriter{}}
			}
			times := make([][2]rat.Rat, len(evs))
			for i, ev := range evs {
				times[i][0], _ = rat.Parse(ev.Start)
				times[i][1], _ = rat.Parse(ev.Finish)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				// Encode once — the tenant loop's side of the contract —
				// then every subscriber writes the same bytes by reference.
				var log dispatchLog
				for i, ev := range evs {
					log.append(ev.Task, ev.Index, ev.Proc, times[i][0], times[i][1], ev.Deadline, rat.Zero)
				}
				frames, _ := log.frames(0, len(evs))
				for _, fw := range writers {
					if _, err := fw.Write(frames); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
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
	defer s.Shutdown()
	for i := 0; i < 8; i++ {
		t, err := newTenant(fmt.Sprintf("bench-%d", i), 2, "", s.submitRing)
		if err != nil {
			b.Fatal(err)
		}
		s.opMu.RLock()
		_, err = s.addTenant(t)
		s.opMu.RUnlock()
		if err != nil {
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
