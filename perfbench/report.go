package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// layerTimes is the traced run's per-layer breakdown: inclusive and
// self times per span name and request kind.
type layerTimes struct {
	rtt, overhead       map[string]durations // per kind
	routerSelf          map[string]durations
	handle, handleSelf  map[string]durations
	follower            durations
	fsync, snapshot     durations
	verify              durations
	rttAll, overheadAll durations
	routerSelfAll       durations
	snapshotBytes       int64
	wireBytes           int64
	writeBytes          int64
}

// analyze derives self times from the recorded spans. A span's self
// time is its duration minus the part of it its children cover. The
// children of a round trip are the server handlers that served the same
// request bytes; a follower's ship apply has no request of its own, so
// it counts as a child of every primary handler it overlaps.
func (tr *tracer) analyze() *layerTimes {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()

	lt := &layerTimes{
		rtt: map[string]durations{}, overhead: map[string]durations{},
		routerSelf: map[string]durations{},
		handle:     map[string]durations{}, handleSelf: map[string]durations{},
		wireBytes: tr.wireBytes.Load(), writeBytes: tr.writeBytes.Load(),
	}
	children := map[uint64][]interval{}
	var applies []interval
	for _, s := range spans {
		switch s.Name {
		case spanRouter, spanHandle:
			if s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
			}
		case spanFollower:
			applies = append(applies, interval{s.Start, s.End})
			lt.follower = append(lt.follower, s.dur())
		case spanFsync:
			lt.fsync = append(lt.fsync, s.dur())
		case spanSnapshot:
			lt.snapshot = append(lt.snapshot, s.dur())
			lt.snapshotBytes = s.Bytes
		case spanVerify:
			lt.verify = append(lt.verify, s.dur())
		}
	}
	sort.Slice(applies, func(i, j int) bool { return applies[i].start < applies[j].start })
	var maxApply int64
	for _, a := range applies {
		maxApply = max(maxApply, a.end-a.start)
	}

	for _, s := range spans {
		self := func() time.Duration {
			return s.dur() - time.Duration(coveredBy(s.Start, s.End, children[s.ID]))
		}
		switch s.Name {
		case spanRTT:
			lt.rtt[s.Kind] = append(lt.rtt[s.Kind], s.dur())
			lt.rttAll = append(lt.rttAll, s.dur())
			if len(children[s.ID]) > 0 {
				lt.overhead[s.Kind] = append(lt.overhead[s.Kind], self())
				lt.overheadAll = append(lt.overheadAll, self())
			}
		case spanRouter:
			if len(children[s.ID]) > 0 {
				lt.routerSelf[s.Kind] = append(lt.routerSelf[s.Kind], self())
				lt.routerSelfAll = append(lt.routerSelfAll, self())
			}
		case spanHandle:
			lt.handle[s.Kind] = append(lt.handle[s.Kind], s.dur())
			// Applies that could overlap start after s.Start-maxApply.
			i := sort.Search(len(applies), func(i int) bool { return applies[i].start >= s.Start-maxApply })
			j := sort.Search(len(applies), func(i int) bool { return applies[i].start >= s.End })
			covered := coveredBy(s.Start, s.End, applies[i:j])
			lt.handleSelf[s.Kind] = append(lt.handleSelf[s.Kind], s.dur()-time.Duration(covered))
		}
	}
	return lt
}

// pathMS sums, over the round trips an accepted transaction makes, the
// median wire overhead, router hop and core handler of each request
// kind: the blocking path the traced tx_p50_ms should be made of. The
// core handler is inclusive: on fleet-tcp it contains the synchronous
// ship to the followers, whose apply time is reported on its own.
func (lt *layerTimes) pathMS(accepted int) float64 {
	if accepted == 0 {
		return 0
	}
	var total time.Duration
	for kind, rtts := range lt.rtt {
		perTx := float64(len(rtts)) / float64(accepted)
		step := lt.overhead[kind].p50() + lt.routerSelf[kind].p50() + lt.handle[kind].p50()
		total += time.Duration(perTx * float64(step))
	}
	return ms(total)
}

// writeTable prints the self-time breakdown per layer and request kind.
func (lt *layerTimes) writeTable(w io.Writer, accepted int) {
	fmt.Fprintf(w, "%-16s %10s %12s %12s %12s %12s %12s\n",
		"kind", "rt/tx", "rtt p50 us", "wire us", "router us", "core us", "core self us")
	for _, kind := range handleKinds {
		rtts := lt.rtt[kind]
		if len(rtts) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-16s %10.3f %12.1f %12.1f %12.1f %12.1f %12.1f\n", kind,
			float64(len(rtts))/float64(max(accepted, 1)), us(rtts.p50()), us(lt.overhead[kind].p50()),
			us(lt.routerSelf[kind].p50()), us(lt.handle[kind].p50()), us(lt.handleSelf[kind].p50()))
	}
	fmt.Fprintf(w, "follower apply p50 %.1f us (%d frames), fsync p50 %.1f us (%d), sig verify p50 %.1f us (%d)\n",
		us(lt.follower.p50()), len(lt.follower), us(lt.fsync.p50()), len(lt.fsync), us(lt.verify.p50()), len(lt.verify))
}
