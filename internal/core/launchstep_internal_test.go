package core

// Tests of step, the destination's launch rules, on their own: a walk
// over every state a host part reaches within six events, and the
// sequences a pipelined launch produces, each checked effect by effect.

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gridproxy/internal/metrics"
)

// world is one host part's launch state with what surrounds it: the
// requests not answered yet, the stagings and spawns in flight, the
// watched groups and the rank copies alive. A part is opened by a
// prepare that has not been stepped yet (opening): on another link, other
// codes can be stepped on it first.
type world struct {
	st       hostState
	opening  bool
	open     map[callID]bool
	staging  []callID
	spawning []spawnFx
	groups   []spawnFx
	live     map[int][]uint64 // rank -> the epochs of its live copies
	released bool
	stopped  bool
}

type spawnFx struct {
	call  callID
	epoch uint64
	ranks []int
}

func newWorld() world {
	return world{st: hostState{origin: "org"}, opening: true, open: map[callID]bool{}, live: map[int][]uint64{}}
}

func (w world) clone() world {
	c := w
	c.open = make(map[callID]bool, len(w.open))
	for k, v := range w.open {
		c.open[k] = v
	}
	c.live = make(map[int][]uint64, len(w.live))
	for k, v := range w.live {
		c.live[k] = slices.Clone(v)
	}
	c.staging = slices.Clone(w.staging)
	c.spawning = slices.Clone(w.spawning)
	c.groups = slices.Clone(w.groups)
	return c
}

// freeCall returns the smallest call id nothing refers to.
func (w world) freeCall() callID {
	used := map[callID]bool{w.st.stage.call: true}
	for id := range w.open {
		used[id] = true
	}
	for _, id := range w.staging {
		used[id] = true
	}
	for _, s := range w.spawning {
		used[s.call] = true
	}
	for _, c := range append(slices.Clone(w.st.parked), w.st.spawning...) {
		for _, id := range c.calls {
			used[id] = true
		}
	}
	id := callID(1)
	for used[id] {
		id++
	}
	return id
}

// arrive opens a request and steps it.
func (w world) arrive(ev event) (world, []effect, error) {
	ev.call = w.freeCall()
	w = w.clone()
	w.open[ev.call] = true
	return w.do(ev)
}

// do steps ev and plays its effects into the world, or says which rule
// of the walk it broke.
func (w world) do(ev event) (world, []effect, error) {
	w = w.clone()
	st, fx := step(w.st, ev)
	w.st = st
	switch ev.kind {
	case evPrepare:
		w.opening = false
	case evStaged:
		w.staging = slices.DeleteFunc(w.staging, func(id callID) bool { return id == ev.call })
	case evSpawned:
		i := slices.IndexFunc(w.spawning, func(s spawnFx) bool { return s.call == ev.call })
		s := w.spawning[i]
		w.spawning = slices.Delete(w.spawning, i, i+1)
		if ev.ok {
			for _, rank := range s.ranks {
				w.live[rank] = append(w.live[rank], s.epoch)
			}
		}
	case evGroupDone:
		w.groups = w.groups[1:]
		for _, rank := range ev.ranks {
			w.live[rank] = slices.DeleteFunc(w.live[rank], func(e uint64) bool { return e == ev.epoch })
		}
	case evStop:
		w.stopped = true
	}
	for _, e := range fx {
		switch e.kind {
		case effReply:
			if !w.open[e.call] {
				return w, fx, fmt.Errorf("call %d answered twice", e.call)
			}
			delete(w.open, e.call)
		case effStage:
			w.staging = append(w.staging, e.call)
		case effSpawn:
			w.spawning = append(w.spawning, spawnFx{e.call, e.epoch, e.ranks})
		case effWatch:
			var ranks []int
			for rank := range e.runs {
				ranks = append(ranks, rank)
			}
			slices.Sort(ranks)
			w.groups = append(w.groups, spawnFx{epoch: e.epoch, ranks: ranks})
		case effKill:
			for rank, run := range e.runs {
				w.live[rank] = slices.DeleteFunc(w.live[rank], func(e uint64) bool { return e == run.epoch })
			}
		case effRelease:
			if w.released {
				return w, fx, fmt.Errorf("released twice")
			}
			w.released = true
		}
	}
	for rank, epochs := range w.live {
		if len(epochs) > 1 {
			return w, fx, fmt.Errorf("rank %d runs at epochs %v", rank, epochs)
		}
		for _, e := range epochs {
			if run, ok := w.st.running[rank]; !ok || run.epoch != e {
				return w, fx, fmt.Errorf("rank %d runs at epoch %d, the state says %+v", rank, e, w.st.running[rank])
			}
		}
	}
	if (ev.kind == evAbort || ev.kind == evOriginDead || ev.kind == evStop || w.released) && len(w.st.parked) > 0 {
		return w, fx, fmt.Errorf("%d commit(s) parked after %v", len(w.st.parked), ev.kind)
	}
	if ev.kind == evAbort || ev.kind == evOriginDead {
		for rank, epochs := range w.live {
			if len(epochs) > 0 {
				return w, fx, fmt.Errorf("rank %d still runs after %v", rank, ev.kind)
			}
		}
	}
	if w.released && (len(w.st.spawning) > 0 || w.st.stage.call != 0 || !w.st.over) {
		return w, fx, fmt.Errorf("released with work left: %+v", w.st)
	}
	return w, fx, w.terminal()
}

// terminal checks a world where nothing is in flight any more (no staging,
// no spawn, and for a part that is over no group left to exit) against
// the states §10 allows a part to rest in: released, with nothing running
// and nobody waiting; or holding prepared or running ranks at epochs no
// newer than its own, with every request answered.
func (w world) terminal() error {
	if w.opening || len(w.staging) > 0 || len(w.spawning) > 0 || (w.st.over && len(w.groups) > 0) {
		return nil
	}
	switch {
	case len(w.open) > 0:
		return fmt.Errorf("at rest with %d request(s) unanswered", len(w.open))
	case w.st.over && !w.released:
		return fmt.Errorf("over but never released")
	case w.released:
		for rank, epochs := range w.live {
			if len(epochs) > 0 {
				return fmt.Errorf("released with rank %d running", rank)
			}
		}
	case len(w.st.pending) == 0 && w.st.groups == 0:
		return fmt.Errorf("holds nothing and is not released")
	}
	for rank, run := range w.st.running {
		if run.epoch > w.st.epoch {
			return fmt.Errorf("rank %d runs at epoch %d, above the part's %d", rank, run.epoch, w.st.epoch)
		}
	}
	return nil
}

func (k eventKind) String() string {
	return [...]string{"", "prepare", "staged", "commit", "spawned", "abort", "fence", "group done", "origin dead", "stop"}[k]
}

// next lists what can happen to w: the requests a peer may send (not once
// the part is released or the proxy stops), and the end of each staging,
// spawn and watched group in flight.
func (w world) next() []event {
	var evs []event
	for _, id := range w.staging {
		evs = append(evs, event{kind: evStaged, call: id, ok: true}, event{kind: evStaged, call: id, reason: "pull failed"})
	}
	for _, s := range w.spawning {
		nodes := make([]string, len(s.ranks))
		for i := range nodes {
			nodes[i] = "n0"
		}
		evs = append(evs, event{kind: evSpawned, call: s.call, ok: true, nodes: nodes}, event{kind: evSpawned, call: s.call, reason: "spawn failed"})
	}
	if len(w.groups) > 0 {
		evs = append(evs, event{kind: evGroupDone, epoch: w.groups[0].epoch, ranks: w.groups[0].ranks, ok: true})
	}
	for _, epoch := range []uint64{1, 2} {
		if w.opening || !w.released && !w.stopped {
			evs = append(evs, event{kind: evPrepare, epoch: epoch, origin: "org", ranks: []int{0}})
		}
	}
	if w.released || w.stopped {
		return evs
	}
	for _, epoch := range []uint64{1, 2} {
		for _, token := range []string{"a", "b"} {
			evs = append(evs, event{kind: evCommit, epoch: epoch, token: token})
		}
	}
	return append(evs,
		event{kind: evAbort},
		event{kind: evFence, epoch: 2, ranks: []int{0}},
		event{kind: evOriginDead},
		event{kind: evStop})
}

// walkDepth is how many events the walk follows: six, and the two more a
// spawn overtaken by a newer epoch's commit needs (prepare, staged,
// commit, prepare, staged, commit, and both spawns).
const walkDepth = 8

// TestLaunchStepWalk walks every state a host part reaches within
// walkDepth events — prepares and commits at epochs 1 and 2 under tokens a and b,
// both outcomes of each staging and spawn, aborts, fences, group ends,
// the origin's death and the proxy's stop — and checks each transition:
// no rank runs at two epochs, every request is answered once, no parked
// commit outlives an abort or a release, and every state at rest is one
// §10 allows.
func TestLaunchStepWalk(t *testing.T) {
	start := time.Now()
	seen := map[string]bool{}
	level := []world{newWorld()}
	transitions := 0
	for depth := 0; depth < walkDepth; depth++ {
		var following []world
		for _, w := range level {
			for _, ev := range w.next() {
				var (
					nw  world
					err error
				)
				if ev.kind == evPrepare || ev.kind == evCommit || ev.kind == evAbort || ev.kind == evFence {
					nw, _, err = w.arrive(ev)
				} else {
					nw, _, err = w.do(ev)
				}
				transitions++
				if err != nil {
					t.Fatalf("%v on %+v: %v", ev.kind, w, err)
				}
				key := fmt.Sprintf("%+v", nw)
				if !seen[key] {
					seen[key] = true
					following = append(following, nw)
				}
			}
		}
		level = following
	}
	t.Logf("%d states, %d transitions in %v", len(seen), transitions, time.Since(start))
}

// played steps events into a fresh world in order, opening a request for
// each arriving code, and returns every effect with the calls opened.
func played(t *testing.T, evs ...event) (world, []effect, []callID) {
	t.Helper()
	w := newWorld()
	var (
		all   []effect
		calls []callID
	)
	for _, ev := range evs {
		var (
			fx  []effect
			err error
		)
		if ev.kind == evPrepare || ev.kind == evCommit || ev.kind == evAbort || ev.kind == evFence {
			ev.call = w.freeCall()
			calls = append(calls, ev.call)
			w, fx, err = w.arrive(ev)
		} else {
			w, fx, err = w.do(ev)
		}
		if err != nil {
			t.Fatalf("%v: %v", ev.kind, err)
		}
		all = append(all, fx...)
	}
	return w, all, calls
}

// replyTo returns the reply step gave call.
func replyTo(t *testing.T, fx []effect, call callID) effect {
	t.Helper()
	for _, e := range fx {
		if e.kind == effReply && e.call == call {
			return e
		}
	}
	t.Fatalf("call %d got no reply", call)
	return effect{}
}

func counted(fx []effect, metric string) int {
	n := 0
	for _, e := range fx {
		if e.kind == effCount && e.metric == metric {
			n += e.n
		}
	}
	return n
}

func kinds(fx []effect, kind effectKind) int {
	n := 0
	for _, e := range fx {
		if e.kind == kind {
			n++
		}
	}
	return n
}

var (
	prep1   = event{kind: evPrepare, epoch: 1, origin: "org", ranks: []int{0, 1}}
	commit1 = event{kind: evCommit, epoch: 1, token: "a"}
)

func staged(call callID, ok bool) event {
	return event{kind: evStaged, call: call, ok: ok, reason: map[bool]string{false: "stage in \"in\": pull failed"}[ok]}
}

func spawned(call callID) event {
	return event{kind: evSpawned, call: call, ok: true, nodes: []string{"n0", "n0"}}
}

// TestLaunchStepParksCommitBehindStaging: a commit that arrives while its
// prepare stages parks and starts nothing; the prepare's staging spawns
// it, and the spawn answers it with the ranks started. A commit that
// arrives after the staging spawns at once and parks nothing.
func TestLaunchStepParksCommitBehindStaging(t *testing.T) {
	w, fx, calls := played(t, prep1, commit1)
	if kinds(fx, effSpawn) != 0 || len(w.st.parked) != 1 || counted(fx, metrics.JobCommitsHeld) != 1 {
		t.Fatalf("a commit behind a staging prepare: %d spawn(s), %d parked, held count %d", kinds(fx, effSpawn), len(w.st.parked), counted(fx, metrics.JobCommitsHeld))
	}
	w, fx, _ = w.do(staged(calls[0], true))
	if r := replyTo(t, fx, calls[0]); !r.ok {
		t.Fatalf("prepare: %+v", r)
	}
	if i := slices.IndexFunc(fx, func(e effect) bool { return e.kind == effSpawn }); i < 0 || fx[i].call != calls[1] || !slices.Equal(fx[i].ranks, []int{0, 1}) {
		t.Fatalf("staging spawned %+v, want ranks 0 and 1 for the commit", fx)
	}
	_, fx, _ = w.do(spawned(calls[1]))
	if r := replyTo(t, fx, calls[1]); !r.ok || !slices.Equal(r.ranks, []int{0, 1}) {
		t.Fatalf("commit: %+v", r)
	}

	w, _, calls = played(t, prep1)
	w, _, _ = w.do(staged(calls[0], true))
	_, fx, _ = w.arrive(commit1)
	if kinds(fx, effSpawn) != 1 || counted(fx, metrics.JobCommitsHeld) != 0 {
		t.Fatalf("a commit behind a staged prepare: %+v", fx)
	}
}

// TestLaunchStepRetryUnderOneToken: retries under the token of a commit
// that has not replied — parked or spawning — join it and get its
// outcome; one after its reply is answered from the token cache. The
// ranks spawn once.
func TestLaunchStepRetryUnderOneToken(t *testing.T) {
	w, fx, calls := played(t, prep1, commit1, commit1)
	if len(fx) != 2 || fx[0].kind != effStage || fx[1].kind != effCount {
		t.Fatalf("a parked commit's retry stepped %+v, want it joined", fx)
	}
	w, _, _ = w.do(staged(calls[0], true))
	w, fx, _ = w.arrive(commit1) // a retry while the first attempt spawns
	if len(fx) != 0 {
		t.Fatalf("a spawning commit's retry stepped %+v", fx)
	}
	w, fx, _ = w.do(spawned(calls[1]))
	if n := kinds(fx, effReply); n != 3 || counted(fx, metrics.JobCommits) != 1 {
		t.Fatalf("one spawn answered %d attempts, counted %d commits", n, counted(fx, metrics.JobCommits))
	}
	for _, e := range fx {
		if e.kind == effReply && (!e.ok || !slices.Equal(e.ranks, []int{0, 1})) {
			t.Errorf("attempt %d: %+v", e.call, e)
		}
	}
	_, fx, _ = w.arrive(commit1)
	if len(fx) != 1 || !fx[0].ok || !slices.Equal(fx[0].ranks, []int{0, 1}) {
		t.Fatalf("a retry after the reply: %+v", fx)
	}
}

// TestLaunchStepRefusals: everything that settles a parked commit without
// spawning it, and the staging prepare with it.
func TestLaunchStepRefusals(t *testing.T) {
	t.Run("the staging fails", func(t *testing.T) {
		w, _, calls := played(t, prep1, commit1)
		w, fx, _ := w.do(staged(calls[0], false))
		if r := replyTo(t, fx, calls[1]); r.ok || !strings.Contains(r.reason, "prepare refused: stage in") {
			t.Fatalf("parked commit: %+v", r)
		}
		if !w.released || kinds(fx, effSpawn) != 0 {
			t.Errorf("a part whose only prepare failed: released %v, %d spawn(s)", w.released, kinds(fx, effSpawn))
		}
	})
	t.Run("an abort arrives while the prepare stages", func(t *testing.T) {
		w, fx, calls := played(t, prep1, commit1, event{kind: evAbort})
		for _, call := range calls[:2] {
			if r := replyTo(t, fx, call); r.ok || r.reason != aborting {
				t.Fatalf("call %d: %+v", call, r)
			}
		}
		if !replyTo(t, fx, calls[2]).ok || !w.released || counted(fx, metrics.JobAbortsServed) != 1 {
			t.Fatalf("abort: %+v", fx)
		}
		// The staging ends later; its prepare was answered already.
		if _, fx, _ := w.do(staged(calls[0], true)); len(fx) != 0 {
			t.Errorf("a staging that outlived its abort stepped %+v", fx)
		}
	})
	t.Run("a newer epoch prepares", func(t *testing.T) {
		w, fx, calls := played(t, event{kind: evPrepare, epoch: 2, origin: "org", ranks: []int{0}}, event{kind: evCommit, epoch: 2, token: "a"},
			event{kind: evPrepare, epoch: 3, origin: "org", ranks: []int{0}})
		for _, call := range calls[:2] {
			if r := replyTo(t, fx, call); r.ok || !strings.Contains(r.reason, "stale launch epoch 2 (current 3)") {
				t.Fatalf("call %d: %+v", call, r)
			}
		}
		if got := counted(fx, metrics.JobStaleCommits); got != 2 {
			t.Errorf("job.fence.stale_refused = %d, want 2", got)
		}
		w, _, _ = w.do(staged(calls[2], true))
		if _, fx, _ := w.arrive(event{kind: evCommit, epoch: 3, token: "b"}); kinds(fx, effSpawn) != 1 {
			t.Errorf("current-epoch commit: %+v", fx)
		}
	})
	t.Run("a commit without a prepared rank", func(t *testing.T) {
		_, fx, calls := played(t, prep1, event{kind: evCommit, epoch: 2, token: "a"})
		if r := replyTo(t, fx, calls[1]); r.ok || !strings.Contains(r.reason, "no pending ranks") {
			t.Fatalf("commit at an epoch nothing prepared: %+v", r)
		}
	})
	t.Run("the origin dies, the proxy stops", func(t *testing.T) {
		for _, end := range []eventKind{evOriginDead, evStop} {
			w, _, _ := played(t, prep1, commit1, event{kind: end})
			if !w.released || len(w.open) != 0 {
				t.Errorf("%v: released %v, %d request(s) unanswered", end, w.released, len(w.open))
			}
		}
	})
}
