package simnet

import "testing"

// BenchmarkSchedulerAtFire measures the host cost of the scheduler's hot
// path: scheduling an event and draining it. This is the per-event floor
// under every simulated message, sleep, and timer; run with -benchmem to
// see the allocation profile (the steady state must be allocation-free).
func BenchmarkSchedulerAtFire(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+Time(i%64+1), fn)
		if i%64 == 63 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkProcSleep measures one park/wake round trip through the
// scheduler: the substrate under Compute, the single most frequent call
// the proxy applications make.
func BenchmarkProcSleep(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCluster(Config{Nodes: 1})
		c.StartProc(0, 0, func(p *Proc) {
			for k := 0; k < 1000; k++ {
				p.Sleep(10)
			}
		})
		c.Run()
	}
}
