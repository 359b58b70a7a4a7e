// oracle reproduces the §3 offline study at quick scale: slice traces into
// 5500-request intervals, let a 128-entry MEA unit and exact Full Counters
// observe each interval, and grade both against the next interval's true
// hottest pages. The streaming rows show the paper's signature result —
// exact counting predicts the future at almost zero accuracy while MEA's
// recency bias still lands hits.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	for _, e := range []mempod.Experiment{mempod.Fig1, mempod.Fig2, mempod.Fig3} {
		tab, err := mempod.RunExperiment(e, mempod.Quick)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tab.Text)
	}
	fmt.Println("Full-scale versions: go run ./cmd/experiments -full -only fig1,fig2,fig3")
}
