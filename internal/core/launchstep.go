package core

import (
	"fmt"
	"maps"
	"slices"

	"gridproxy/internal/metrics"
)

// The launch rules of a destination (DESIGN §10, §17.3) as one pure
// function over a host part's launch state. step reads no clock, takes no
// lock and blocks on nothing: the record's mutex orders the events — a
// peer control channel's read loop steps the four launch codes in the
// order they arrived — and whoever stepped an event carries out the
// effects it returns (apply, joblife.go).

// callID names one launch request at a destination from its arrival to
// its reply; 0 names none.
type callID uint64

type eventKind uint8

const (
	evPrepare    eventKind = iota + 1 // a PrepareSpawn arrived
	evStaged                          // a prepare's inputs are staged and its ranks placed (ok), or not
	evCommit                          // a CommitSpawn arrived
	evSpawned                         // a commit's ranks were spawned (ok, on nodes), or not
	evAbort                           // an AbortSpawn arrived
	evFence                           // a FenceNotice arrived
	evGroupDone                       // a watched rank group exited (ok: without an error)
	evOriginDead                      // the origin was held dead past the orphan grace
	evStop                            // the proxy stops, or could not set the part up
)

// event is one input of step: call is the request an arriving code
// opened, or the one whose staging or spawn ended. A fence naming no rank
// names them all.
type event struct {
	kind          eventKind
	call          callID
	epoch         uint64
	origin, token string
	ranks         []int
	nodes         []string
	ok            bool
	reason        string
}

type effectKind uint8

const (
	effStage   effectKind = iota + 1 // stage call's inputs and place its ranks, then step evStaged
	effPlace                         // install call's placement, under the record's lock
	effSpawn                         // spawn ranks for call at epoch, then step evSpawned
	effWatch                         // wait for the copies in runs to exit, then step evGroupDone
	effKill                          // kill the copies in runs; reap: also free their process slots
	effReply                         // answer call: ok or reason, the ranks started, n killed
	effReport                        // report a group's end (ok, reason) to the origin
	effRelease                       // let the host part go
	effCount                         // add n to metric
)

// effect is one output of step.
type effect struct {
	kind     effectKind
	call     callID
	epoch    uint64
	ranks    []int
	runs     map[int]rankRun
	reap, ok bool
	reason   string
	n        int
	metric   string
}

// hostState is a host part's launch state. step builds new maps and
// slices; it never changes those of the state it is given.
type hostState struct {
	origin string
	// epoch is the highest epoch a prepare brought: prepares and commits
	// below it are leftovers of a reschedule this site missed.
	epoch uint64
	over  bool    // aborted, reaped, stopping or released: no launch any more
	stage staging // the prepare whose inputs are being staged (call 0: none)
	// pending are the ranks prepared at pendingEpoch, not committed yet.
	pending      []int
	pendingEpoch uint64
	// parked wait for the staging prepare at their epoch; spawning have
	// taken the pending ranks.
	parked, spawning []commitEntry
	running          map[int]rankRun // committed copies not exited yet
	groups           int             // spawned groups being watched
	// done are the commits that started their ranks, by token: a retry
	// after a lost reply is answered with them instead of spawning twice.
	done []commitEntry
}

type staging struct {
	call  callID
	epoch uint64
	ranks []int
}

// commitEntry is one CommitSpawn and the retries under its token.
type commitEntry struct {
	epoch uint64
	token string
	calls []callID
	ranks []int
}

// rankRun is one committed, not-yet-exited copy of a rank: its node and
// launch epoch. Copies from epochs below a fence's were rescheduled
// elsewhere while this site was unreachable and must die.
type rankRun struct {
	node  string
	epoch uint64
}

const aborting = "application is being aborted"

func staleEpoch(epoch, current uint64) string {
	return fmt.Sprintf("stale launch epoch %d (current %d)", epoch, current)
}

// step applies one event to a host part's launch state.
func step(s hostState, ev event) (hostState, []effect) {
	var fx effects
	switch ev.kind {
	case evPrepare:
		switch {
		case s.over:
			fx.refuse(aborting, ev.call)
		case ev.origin != s.origin:
			fx.refuse(fmt.Sprintf("application belongs to origin %q", s.origin), ev.call)
		case ev.epoch < s.epoch:
			fx.count(metrics.JobStaleCommits, 1)
			fx.refuse(staleEpoch(ev.epoch, s.epoch), ev.call)
		case s.stage.call != 0 && s.stage.epoch == ev.epoch || s.hosts(ev.ranks, ev.epoch):
			fx.refuse(fmt.Sprintf("epoch %d is staging a prepare, or running one of ranks %v", ev.epoch, ev.ranks), ev.call)
		default:
			if ev.epoch > s.epoch {
				// What was staged, parked or prepared under an older epoch
				// is stale, and this site's older copies of the ranks it
				// lands here were rescheduled away and came back: they die
				// before the new copies are committed.
				stale := len(s.parked)
				if s.stage.call != 0 {
					stale++
				}
				fx.count(metrics.JobStaleCommits, stale)
				fx.refuse(staleEpoch(s.stage.epoch, ev.epoch), s.stage.call)
				for _, c := range s.parked {
					fx.refuse(staleEpoch(c.epoch, ev.epoch), c.calls...)
				}
				s.epoch, s.parked, s.pending = ev.epoch, nil, nil
				fx.count(metrics.JobFencedRanks, fx.kill(s.running, ev.epoch, ev.ranks))
			}
			s.stage = staging{call: ev.call, epoch: ev.epoch, ranks: ev.ranks}
			fx.add(effect{kind: effStage, call: ev.call})
		}

	case evStaged:
		if ev.call == 0 || ev.call != s.stage.call {
			break // answered already: aborted or superseded
		}
		st, parked := s.stage, s.parked
		s.stage, s.parked = staging{}, nil
		if !ev.ok {
			fx.refuse(ev.reason, ev.call)
			for _, c := range parked {
				fx.refuse("prepare refused: "+ev.reason, c.calls...)
			}
			s = s.releaseIfIdle(&fx)
			break
		}
		s.pending, s.pendingEpoch = st.ranks, st.epoch
		fx.add(effect{kind: effPlace, call: ev.call})
		fx.count(metrics.JobPrepares, 1)
		fx.add(effect{kind: effReply, call: ev.call, ok: true})
		for _, c := range parked {
			if len(s.pending) > 0 {
				s = s.spawn(c, &fx)
			} else {
				fx.refuse("no pending ranks (commit without prepare)", c.calls...)
			}
		}

	case evCommit:
		if i := tokenAt(s.done, ev.token); i >= 0 {
			fx.add(effect{kind: effReply, call: ev.call, ok: true, ranks: s.done[i].ranks})
			break
		}
		// A retry of an attempt that has not replied gets its outcome.
		var joined bool
		if s.parked, joined = join(s.parked, ev); joined {
			break
		}
		if s.spawning, joined = join(s.spawning, ev); joined {
			break
		}
		c := commitEntry{epoch: ev.epoch, token: ev.token, calls: []callID{ev.call}}
		switch {
		case s.over:
			fx.refuse(aborting, ev.call)
		case ev.epoch < s.epoch:
			fx.count(metrics.JobStaleCommits, 1)
			fx.refuse(staleEpoch(ev.epoch, s.epoch), ev.call)
		case s.stage.call != 0 && s.stage.epoch == ev.epoch:
			s.parked = append(slices.Clip(s.parked), c)
			fx.count(metrics.JobCommitsHeld, 1)
		case len(s.pending) == 0 || s.pendingEpoch != ev.epoch:
			fx.refuse("no pending ranks (commit without prepare)", ev.call)
		default:
			s = s.spawn(c, &fx)
		}

	case evSpawned:
		i := slices.IndexFunc(s.spawning, func(c commitEntry) bool { return c.calls[0] == ev.call })
		if i < 0 {
			break
		}
		c := s.spawning[i]
		s.spawning = slices.Delete(slices.Clone(s.spawning), i, i+1)
		runs := make(map[int]rankRun, len(ev.nodes))
		for i, node := range ev.nodes {
			runs[c.ranks[i]] = rankRun{node: node, epoch: c.epoch}
		}
		switch {
		case !ev.ok:
			fx.refuse(ev.reason, c.calls...)
		case s.over || c.epoch < s.epoch:
			// An abort or a newer epoch came while the ranks spawned.
			fx.add(effect{kind: effKill, runs: runs, reap: true})
			reason := aborting
			if !s.over {
				fx.count(metrics.JobStaleCommits, 1)
				reason = staleEpoch(c.epoch, s.epoch)
			}
			fx.refuse(reason, c.calls...)
		default:
			all := runs
			if len(s.running) > 0 {
				all = maps.Clone(s.running)
				maps.Copy(all, runs)
			}
			s.running = all
			s.groups++
			if c.token != "" {
				s.done = append(slices.Clip(s.done), commitEntry{token: c.token, ranks: c.ranks})
			}
			fx.count(metrics.JobCommits, 1)
			fx.add(effect{kind: effWatch, epoch: c.epoch, runs: runs})
			for _, call := range c.calls {
				fx.add(effect{kind: effReply, call: call, ok: true, ranks: c.ranks})
			}
		}
		s = s.releaseIfIdle(&fx)

	case evAbort, evOriginDead, evStop:
		if !s.over {
			switch ev.kind {
			case evAbort:
				fx.kill(s.running, ^uint64(0), nil)
				fx.count(metrics.JobAbortsServed, 1)
			case evOriginDead:
				fx.kill(s.running, ^uint64(0), nil)
				fx.count(metrics.OrphanReaps, 1)
			}
			// Nothing pending stays, the staging prepare and the parked
			// commits are refused, and spawning commits find the part over
			// when their spawn ends.
			fx.refuse(aborting, s.stage.call)
			for _, c := range s.parked {
				fx.refuse(aborting, c.calls...)
			}
			s.over, s.pending, s.stage, s.parked = true, nil, staging{}, nil
			s = s.releaseIfIdle(&fx)
		}
		if ev.kind == evAbort {
			fx.add(effect{kind: effReply, call: ev.call, ok: true, n: len(s.running)})
		}

	case evFence:
		n := fx.kill(s.running, ev.epoch, ev.ranks)
		fx.count(metrics.JobFencedRanks, n)
		fx.add(effect{kind: effReply, call: ev.call, ok: true, n: n})

	case evGroupDone:
		var left map[int]rankRun
		for rank, run := range s.running {
			if run.epoch != ev.epoch || !slices.Contains(ev.ranks, rank) {
				if left == nil {
					left = make(map[int]rankRun, len(s.running))
				}
				left[rank] = run
			}
		}
		s.running = left
		s.groups--
		report := !s.over
		s = s.releaseIfIdle(&fx)
		if report {
			fx.add(effect{kind: effReport, ok: ev.ok, reason: ev.reason})
		}
	}
	return s, fx
}

// hosts reports whether one of ranks runs or spawns at epoch.
func (s hostState) hosts(ranks []int, epoch uint64) bool {
	for _, rank := range ranks {
		if run, ok := s.running[rank]; ok && run.epoch == epoch {
			return true
		}
		for _, c := range s.spawning {
			if c.epoch == epoch && slices.Contains(c.ranks, rank) {
				return true
			}
		}
	}
	return false
}

// tokenAt returns the index of the commit under token in list, or -1.
func tokenAt(list []commitEntry, token string) int {
	return slices.IndexFunc(list, func(c commitEntry) bool { return token != "" && c.token == token })
}

// join adds ev's call to the entry of list under ev's token, if any.
func join(list []commitEntry, ev event) ([]commitEntry, bool) {
	i := tokenAt(list, ev.token)
	if i < 0 {
		return list, false
	}
	list = slices.Clone(list)
	list[i].calls = append(slices.Clip(list[i].calls), ev.call)
	return list, true
}

// spawn has commit c take the pending ranks.
func (s hostState) spawn(c commitEntry, fx *effects) hostState {
	c.ranks, s.pending = s.pending, nil
	s.spawning = append(slices.Clip(s.spawning), c)
	fx.add(effect{kind: effSpawn, call: c.calls[0], epoch: c.epoch, ranks: c.ranks})
	return s
}

// releaseIfIdle releases a part that nothing holds any more — no group
// runs or spawns, no prepare stages, no rank is pending — and then takes
// no launch any more. Its callers step parts that are not released.
func (s hostState) releaseIfIdle(fx *effects) hostState {
	if s.groups == 0 && len(s.spawning) == 0 && s.stage.call == 0 && len(s.pending) == 0 {
		s.over = true
		fx.add(effect{kind: effRelease})
	}
	return s
}

type effects []effect

func (fx *effects) add(e effect) { *fx = append(*fx, e) }

// refuse answers calls (none: call 0) with reason.
func (fx *effects) refuse(reason string, calls ...callID) {
	for _, call := range calls {
		if call != 0 {
			fx.add(effect{kind: effReply, call: call, reason: reason})
		}
	}
}

func (fx *effects) count(metric string, n int) {
	if n > 0 {
		fx.add(effect{kind: effCount, metric: metric, n: n})
	}
}

// kill kills the running copies below epoch of ranks (of every rank when
// none is named) and returns how many.
func (fx *effects) kill(running map[int]rankRun, below uint64, ranks []int) int {
	victims := make(map[int]rankRun)
	for rank, run := range running {
		if run.epoch < below && (len(ranks) == 0 || slices.Contains(ranks, rank)) {
			victims[rank] = run
		}
	}
	if len(victims) > 0 {
		fx.add(effect{kind: effKill, runs: victims})
	}
	return len(victims)
}
