// Failure-recovery: inject the same process failure (Figure 4 of the
// paper) into CoMD under all four fault-tolerance designs and compare how
// long each takes to bring MPI back — the experiment behind Figure 7.
// The recovered answer is verified against a failure-free run.
package main

import (
	"fmt"
	"log"

	"match"
)

func main() {
	base := match.Config{App: "CoMD", Procs: 64, Input: match.Small}

	ref, err := match.Run(withDesign(base, match.ReinitFTI))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure-free reference answer: %g\n\n", ref.Signature)
	fmt.Printf("%-12s %12s %12s %12s %8s\n", "design", "recovery(s)", "app(s)", "total(s)", "answer")

	for _, d := range []match.Design{match.RestartFTI, match.ReinitFTI, match.UlfmFTI} {
		cfg := withDesign(base, d)
		cfg.Faults = 1
		cfg.FaultSeed = 7 // same rank, same iteration for every design
		bd, err := match.Run(cfg)
		if err != nil {
			log.Fatalf("%v: %v", d, err)
		}
		verdict := "OK"
		if bd.Signature != ref.Signature {
			verdict = "CORRUPTED"
		}
		fmt.Printf("%-12s %12.3f %12.3f %12.3f %8s\n",
			d, bd.Recovery.Seconds(), bd.App.Seconds(), bd.Total.Seconds(), verdict)
	}
	fmt.Println("\nExpected ordering (the paper's central finding): Reinit < ULFM < Restart.")
}

func withDesign(cfg match.Config, d match.Design) match.Config {
	cfg.Design = d
	return cfg
}
