// Command report generates a single self-contained HTML reproduction
// report: every figure (ASCII + interactive Gantt charts with exact
// rational positioning) and every experiment table, ready to attach to a
// paper-reproduction artifact.
//
// Usage: report [-trials N] [-seed S] [-o report.html]
package main

import (
	"flag"
	"fmt"
	"html/template"
	"os"
	"strings"
	"time"

	"desyncpfair/internal/core"
	"desyncpfair/internal/exp"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
	"desyncpfair/internal/sfq"
	"desyncpfair/internal/trace"
)

type section struct {
	Title  string
	Pre    string // preformatted text (tables, ASCII diagrams)
	Charts []template.HTML
}

type page struct {
	Generated string
	CSS       template.CSS
	Sections  []section
}

func main() {
	trials := flag.Int("trials", 10, "trials per experiment cell")
	seed := flag.Int64("seed", 1, "base RNG seed")
	out := flag.String("o", "report.html", "output file")
	flag.Parse()
	if err := run(*trials, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

func run(trials int, seed int64, out string) error {
	var sections []section

	// --- Figures -----------------------------------------------------------
	sections = append(sections, section{Title: "Fig. 1 — Pfair windows", Pre: exp.Fig1()})

	fig2, err := fig2Section()
	if err != nil {
		return err
	}
	sections = append(sections, fig2)

	fig3Text, _, err := exp.Fig3()
	if err != nil {
		return err
	}
	fig3Charts, err := charts(func() (*sched.Schedule, error) {
		return core.RunDVQ(exp.Fig3System(5), core.DVQOptions{M: 3, Yield: exp.Fig3Yield(rat.New(1, 4))})
	})
	if err != nil {
		return err
	}
	sections = append(sections, section{
		Title: "Fig. 3 — predecessor blocking (reconstruction)", Pre: fig3Text, Charts: fig3Charts,
	})

	fig4, err := exp.Fig4()
	if err != nil {
		return err
	}
	sections = append(sections, section{Title: "Fig. 4 — Aligned/Olapped/Free and S_B", Pre: fig4})

	fig6, err := exp.Fig6()
	if err != nil {
		return err
	}
	sections = append(sections, section{Title: "Fig. 6 — PD^B and k-compliance", Pre: fig6})

	// --- Experiments ---------------------------------------------------------
	expText, err := experimentTables(trials, seed)
	if err != nil {
		return err
	}
	sections = append(sections, section{Title: "Experiments", Pre: expText})

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	err = reportTmpl.Execute(f, page{
		Generated: time.Now().Format(time.RFC3339),
		CSS:       template.CSS(trace.GanttCSS),
		Sections:  sections,
	})
	if err == nil {
		fmt.Printf("report written to %s (%d sections)\n", out, len(sections))
	}
	return err
}

func fig2Section() (section, error) {
	text, err := exp.Fig2()
	if err != nil {
		return section{}, err
	}
	var chartList []template.HTML
	sfqSched, err := sfq.Run(exp.Fig2System(), sfq.Options{M: 2})
	if err != nil {
		return section{}, err
	}
	dvq, err := core.RunDVQ(exp.Fig2System(), core.DVQOptions{M: 2, Yield: exp.Fig2Yield(rat.New(1, 4))})
	if err != nil {
		return section{}, err
	}
	pdb, err := core.RunPDB(exp.Fig2System(), core.PDBOptions{M: 2})
	if err != nil {
		return section{}, err
	}
	for _, s := range []*sched.Schedule{sfqSched, dvq, pdb.Schedule} {
		frag, err := trace.HTMLFragment(s)
		if err != nil {
			return section{}, err
		}
		chartList = append(chartList, frag)
	}
	return section{Title: "Fig. 2 — SFQ vs DVQ vs PD^B", Pre: text, Charts: chartList}, nil
}

func charts(runs ...func() (*sched.Schedule, error)) ([]template.HTML, error) {
	var out []template.HTML
	for _, run := range runs {
		s, err := run()
		if err != nil {
			return nil, err
		}
		frag, err := trace.HTMLFragment(s)
		if err != nil {
			return nil, err
		}
		out = append(out, frag)
	}
	return out, nil
}

// experimentTables renders the tables of exp.Suite, as cmd/experiments
// prints them.
func experimentTables(trials int, seed int64) (string, error) {
	var b strings.Builder
	for _, e := range exp.Suite() {
		table, _, err := e.Run(seed, trials)
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.ID, err)
		}
		b.WriteString(table + "\n")
	}
	return b.String(), nil
}

var reportTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>desyncpfair — reproduction report</title>
<style>{{.CSS}}</style></head><body>
<h1>desyncpfair — reproduction report</h1>
<div class="meta">Devi &amp; Anderson, “Desynchronized Pfair Scheduling on
Multiprocessors” (IPPS 2005). Generated {{.Generated}}.</div>
{{range .Sections}}
<h2>{{.Title}}</h2>
{{range .Charts}}{{.}}{{end}}
<pre>{{.Pre}}</pre>
{{end}}
</body></html>
`))
