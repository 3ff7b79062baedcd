package online_test

import (
	"fmt"

	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/rat"
)

// Two processors under PD²: a task of weight 1/2 is registered, a job
// arrives at time 0 and runs until virtual time 10, a second job arrives
// late, at 10, and the executive drains. Every subtask meets its
// pseudo-deadline.
func ExampleExecutive() {
	ex := online.New(2, nil) // two processors, PD²
	web, err := ex.Register("web", model.W(1, 2))
	if err != nil {
		panic(err)
	}
	if err := ex.SubmitJob(web, rat.Zero); err != nil { // job arrives at time 0
		panic(err)
	}
	if err := ex.Run(rat.FromInt(10), nil, nil); err != nil { // advance virtual time
		panic(err)
	}
	if err := ex.SubmitJob(web, rat.FromInt(10)); err != nil { // next job arrives late — fine
		panic(err)
	}
	if _, err := ex.Drain(nil); err != nil {
		panic(err)
	}
	s := ex.Schedule()
	fmt.Println("dispatched:", s.Len(), "max tardiness:", s.MaxTardiness())
	// Output: dispatched: 2 max tardiness: 0
}
