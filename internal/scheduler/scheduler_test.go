package scheduler

import (
	"errors"
	"fmt"
	"testing"

	"gridproxy/internal/balance"
	"gridproxy/internal/proto"
)

func staticSource(nodes ...balance.NodeInfo) NodeSource {
	return NodeSourceFunc(func() []balance.NodeInfo {
		out := make([]balance.NodeInfo, len(nodes))
		copy(out, nodes)
		return out
	})
}

func job(id string, tasks int) Job {
	j := Job{ID: id, Owner: "alice", Program: "prog"}
	for i := 0; i < tasks; i++ {
		j.Tasks = append(j.Tasks, Task{ID: fmt.Sprintf("t%d", i), Work: 1})
	}
	return j
}

func twoNodes() NodeSource {
	return staticSource(
		balance.NodeInfo{Name: "n1", Site: "a", Speed: 1, RAMFreeMB: 1024},
		balance.NodeInfo{Name: "n2", Site: "b", Speed: 1, RAMFreeMB: 4096},
	)
}

func TestSubmitAndPlace(t *testing.T) {
	s := New(balance.NewRoundRobin(), twoNodes())
	if err := s.Submit(job("j1", 4)); err != nil {
		t.Fatal(err)
	}
	placements, err := s.Place("j1")
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) != 4 {
		t.Fatalf("placements = %d", len(placements))
	}
	counts := map[string]int{}
	for _, p := range placements {
		counts[p.Node]++
	}
	if counts["n1"] != 2 || counts["n2"] != 2 {
		t.Errorf("round-robin spread = %v", counts)
	}
	st, err := s.Status("j1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != proto.JobRunning || st.Remaining != 4 {
		t.Errorf("status = %+v", st)
	}
	if s.QueueLen() != 0 {
		t.Errorf("queue len = %d", s.QueueLen())
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New(balance.NewRoundRobin(), twoNodes())
	if err := s.Submit(Job{ID: "", Tasks: []Task{{ID: "t"}}}); err == nil {
		t.Error("empty id accepted")
	}
	if err := s.Submit(Job{ID: "j"}); err == nil {
		t.Error("no tasks accepted")
	}
	if err := s.Submit(Job{ID: "j", Tasks: []Task{{ID: "t"}, {ID: "t"}}}); err == nil {
		t.Error("duplicate task ids accepted")
	}
	if err := s.Submit(job("dup", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job("dup", 1)); err == nil {
		t.Error("duplicate job id accepted")
	}
}

func TestCompleteLifecycle(t *testing.T) {
	s := New(balance.LeastLoaded{}, twoNodes())
	if err := s.Submit(job("j1", 2)); err != nil {
		t.Fatal(err)
	}
	placements, err := s.Place("j1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteTask("j1", placements[0].TaskID); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status("j1")
	if st.State != proto.JobRunning || st.Remaining != 1 {
		t.Errorf("mid status = %+v", st)
	}
	if err := s.CompleteTask("j1", placements[1].TaskID); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Status("j1")
	if st.State != proto.JobDone || st.Remaining != 0 {
		t.Errorf("final status = %+v", st)
	}
	// Slots released.
	if s.RunningOn("n1") != 0 || s.RunningOn("n2") != 0 {
		t.Error("running slots not released")
	}
	// Double completion rejected (job is done).
	if err := s.CompleteTask("j1", placements[0].TaskID); !errors.Is(err, ErrBadState) {
		t.Errorf("completion after done = %v", err)
	}
}

func TestRequirementsFilter(t *testing.T) {
	s := New(balance.LeastLoaded{}, twoNodes())
	j := job("big", 2)
	j.Requirements = Requirements{MinRAMMB: 2048}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	placements, err := s.Place("big")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range placements {
		if p.Node != "n2" {
			t.Errorf("placed on %s despite RAM requirement", p.Node)
		}
	}
}

func TestSitePinning(t *testing.T) {
	s := New(balance.LeastLoaded{}, twoNodes())
	j := job("fixed", 3)
	j.Requirements = Requirements{Site: "a"}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	placements, err := s.Place("fixed")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range placements {
		if p.Site != "a" {
			t.Errorf("placed at site %s", p.Site)
		}
	}
}

func TestNoEligibleNodes(t *testing.T) {
	s := New(balance.LeastLoaded{}, twoNodes())
	j := job("impossible", 1)
	j.Requirements = Requirements{MinRAMMB: 1 << 40}
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place("impossible"); !errors.Is(err, ErrNoEligibleNodes) {
		t.Errorf("Place = %v", err)
	}
	// Job stays queued for later retry.
	st, _ := s.Status("impossible")
	if st.State != proto.JobQueued {
		t.Errorf("state = %v", st.State)
	}
}

func TestPlaceNextSkipsBlockedJobs(t *testing.T) {
	s := New(balance.LeastLoaded{}, twoNodes())
	blocked := job("blocked", 1)
	blocked.Requirements = Requirements{MinRAMMB: 1 << 40}
	if err := s.Submit(blocked); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job("runnable", 1)); err != nil {
		t.Fatal(err)
	}
	id, placements, err := s.PlaceNext()
	if err != nil {
		t.Fatal(err)
	}
	if id != "runnable" || len(placements) != 1 {
		t.Errorf("PlaceNext = %q, %v", id, placements)
	}
	// Only the blocked job remains; PlaceNext reports no eligible nodes.
	if _, _, err := s.PlaceNext(); !errors.Is(err, ErrNoEligibleNodes) {
		t.Errorf("PlaceNext with only blocked = %v", err)
	}
}

func TestPlaceNextEmptyQueue(t *testing.T) {
	s := New(balance.LeastLoaded{}, twoNodes())
	if _, _, err := s.PlaceNext(); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("empty queue = %v", err)
	}
}

func TestCancelReleasesSlots(t *testing.T) {
	s := New(balance.LeastLoaded{}, twoNodes())
	if err := s.Submit(job("j1", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place("j1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel("j1"); err != nil {
		t.Fatal(err)
	}
	if s.RunningOn("n1")+s.RunningOn("n2") != 0 {
		t.Error("cancel did not release slots")
	}
	st, _ := s.Status("j1")
	if st.State != proto.JobCancelled {
		t.Errorf("state = %v", st.State)
	}
	if err := s.Cancel("j1"); !errors.Is(err, ErrBadState) {
		t.Errorf("double cancel = %v", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(balance.LeastLoaded{}, twoNodes())
	if err := s.Submit(job("j1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel("j1"); err != nil {
		t.Fatal(err)
	}
	if s.QueueLen() != 0 {
		t.Error("cancelled job still queued")
	}
}

func TestFail(t *testing.T) {
	s := New(balance.LeastLoaded{}, twoNodes())
	if err := s.Submit(job("j1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place("j1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail("j1", "node died"); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status("j1")
	if st.State != proto.JobFailed || st.Detail != "node died" {
		t.Errorf("status = %+v", st)
	}
}

func TestReleaseNodeReportsAffectedJobs(t *testing.T) {
	s := New(balance.NewRoundRobin(), twoNodes())
	if err := s.Submit(job("j1", 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job("j2", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place("j1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place("j2"); err != nil {
		t.Fatal(err)
	}
	affected := s.ReleaseNode("n1")
	if len(affected) != 2 {
		t.Errorf("affected = %v (round-robin places both jobs on both nodes)", affected)
	}
	if s.RunningOn("n1") != 0 {
		t.Error("released node still has running count")
	}
}

func TestUnknownJobOperations(t *testing.T) {
	s := New(balance.LeastLoaded{}, twoNodes())
	if _, err := s.Place("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Place = %v", err)
	}
	if err := s.CompleteTask("ghost", "t"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("CompleteTask = %v", err)
	}
	if _, err := s.Status("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Status = %v", err)
	}
	if err := s.Cancel("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Cancel = %v", err)
	}
}

func TestRunningCountsInfluencePlacement(t *testing.T) {
	// With least-loaded, a second job must avoid the node saturated by
	// the first.
	src := staticSource(
		balance.NodeInfo{Name: "n1", Site: "a", Speed: 1},
		balance.NodeInfo{Name: "n2", Site: "a", Speed: 1},
	)
	s := New(balance.LeastLoaded{}, src)
	j1 := job("j1", 1)
	if err := s.Submit(j1); err != nil {
		t.Fatal(err)
	}
	p1, err := s.Place("j1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job("j2", 1)); err != nil {
		t.Fatal(err)
	}
	p2, err := s.Place("j2")
	if err != nil {
		t.Fatal(err)
	}
	if p1[0].Node == p2[0].Node {
		t.Errorf("both tasks on %s; scheduler ignored its own running counts", p1[0].Node)
	}
}

func TestJobsListing(t *testing.T) {
	s := New(balance.LeastLoaded{}, twoNodes())
	for _, id := range []string{"c", "a", "b"} {
		if err := s.Submit(job(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Jobs()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Jobs = %v", got)
		}
	}
}
