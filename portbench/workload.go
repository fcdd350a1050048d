package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"bpms/internal/model"
)

// Process IDs, message names and staff of the port-logistics workloads.
const (
	procClearance = "port-clearance"
	procDG        = "port-dg"
	msgArrival    = "vessel.arrival"
	roleHarbour   = "harbour-master"
	userOfficer   = "dg-officer"
	// noShowTimeout guards the vessel-arrival message of a DG case.
	// It is long against any request latency, so only cases whose
	// vessel never reports take the timer path.
	noShowTimeout = 2 * time.Second
)

// harbourMasters are the inspection staff; sender i polls and claims
// as harbourMasters[i].
var harbourMasters = []string{"hm-1", "hm-2", "hm-3", "hm-4"}

// clearanceProcess screens a customs declaration to a green, amber or
// red route with script tasks and exclusive gateways only, so a start
// runs the whole case in one durable request.
func clearanceProcess() *model.Process {
	return model.New(procClearance).
		Name("Customs declaration screening").
		Start("lodged").
		ScriptTask("valuation", model.Output("valueBand", "value >= 250000 ? 3 : (value >= 50000 ? 2 : 1)")).
		XOR("hazardGate", model.Default("noHazard")).
		ScriptTask("dgScreen", model.Output("hazardPoints", "hazard >= 6 ? 40 : 25")).
		ScriptTask("stdScreen", model.Output("hazardPoints", "0")).
		XOR("hazardMerge").
		XOR("chapterGate", model.Default("plain")).
		ScriptTask("chemCheck", model.Output("chapterPoints", "15")).
		ScriptTask("plainCheck", model.Output("chapterPoints", "0")).
		XOR("chapterMerge").
		ScriptTask("riskScore", model.Output("score", "originRisk + hazardPoints + chapterPoints + valueBand * 5")).
		XOR("route", model.Default("toGreen")).
		ScriptTask("red", model.Output("route", `"red"`)).
		ScriptTask("amber", model.Output("route", `"amber"`)).
		ScriptTask("green", model.Output("route", `"green"`)).
		XOR("routeMerge").
		ScriptTask("record", model.Output("cleared", `route != "red"`)).
		End("released").
		Flow("lodged", "valuation").
		Flow("valuation", "hazardGate").
		FlowIf("hazardGate", "dgScreen", "hazard > 0").
		FlowID("noHazard", "hazardGate", "stdScreen", "").
		Flow("dgScreen", "hazardMerge").
		Flow("stdScreen", "hazardMerge").
		Flow("hazardMerge", "chapterGate").
		FlowIf("chapterGate", "chemCheck", "chapter >= 28 && chapter <= 38").
		FlowID("plain", "chapterGate", "plainCheck", "").
		Flow("chemCheck", "chapterMerge").
		Flow("plainCheck", "chapterMerge").
		Flow("chapterMerge", "riskScore").
		Flow("riskScore", "route").
		FlowIf("route", "red", "score >= 90").
		FlowIf("route", "amber", "score >= 60 && score < 90").
		FlowID("toGreen", "route", "green", "").
		Flow("red", "routeMerge").
		Flow("amber", "routeMerge").
		Flow("green", "routeMerge").
		Flow("routeMerge", "record").
		Flow("record", "released").
		MustBuild()
}

// dgProcess is a dangerous-goods declaration: a harbour-master
// inspection runs beside the vessel-arrival message (correlated by
// port-call ID, guarded by a no-show timer); a join and an officer's
// approval follow.
func dgProcess() *model.Process {
	return model.New(procDG).
		Name("Dangerous-goods declaration").
		Start("declared").
		AND("fork").
		UserTask("inspect", model.Name("Inspect DG cargo"), model.Role(roleHarbour)).
		ReceiveTask("vesselArrival", msgArrival, model.CorrelationKey("portCall")).
		BoundaryTimer("noShow", "vesselArrival", noShowTimeout.String(), true).
		ScriptTask("reschedule", model.Output("berth", `"rescheduled"`)).
		XOR("arrivalMerge").
		AND("join").
		UserTask("approve", model.Name("Approve DG permit"), model.Assignee(userOfficer)).
		ScriptTask("permit", model.Output("permit", `"DG-" + str(int(unNumber)) + "-" + berth`)).
		End("permitted").
		Flow("declared", "fork").
		Flow("fork", "inspect").
		Flow("fork", "vesselArrival").
		Flow("vesselArrival", "arrivalMerge").
		Flow("noShow", "reschedule").
		Flow("reschedule", "arrivalMerge").
		Flow("arrivalMerge", "join").
		Flow("inspect", "join").
		Flow("join", "approve").
		Flow("approve", "permit").
		Flow("permit", "permitted").
		MustBuild()
}

// clearanceIn is one generated customs declaration.
type clearanceIn struct {
	Value, Chapter, OriginRisk, Hazard int
}

func genClearance(r *rand.Rand) clearanceIn {
	in := clearanceIn{
		Value:      int(math.Exp(5 + 8*r.Float64())), // ~150 .. ~440k, log-uniform
		Chapter:    1 + r.Intn(97),
		OriginRisk: r.Intn(60),
	}
	if r.Intn(8) == 0 {
		in.OriginRisk += 35 // high-risk origin
	}
	if r.Intn(5) == 0 {
		in.Hazard = 1 + r.Intn(9)
	}
	return in
}

func (c clearanceIn) vars() map[string]any {
	return map[string]any{"value": c.Value, "chapter": c.Chapter, "originRisk": c.OriginRisk, "hazard": c.Hazard}
}

// route is the benchmark's own oracle for the screening result,
// computed from the generated fields without the engine.
func (c clearanceIn) route() string {
	band := 1
	switch {
	case c.Value >= 250000:
		band = 3
	case c.Value >= 50000:
		band = 2
	}
	hazard := 0
	if c.Hazard > 0 {
		hazard = 25
		if c.Hazard >= 6 {
			hazard = 40
		}
	}
	chapter := 0
	if c.Chapter >= 28 && c.Chapter <= 38 {
		chapter = 15
	}
	switch score := c.OriginRisk + hazard + chapter + band*5; {
	case score >= 90:
		return "red"
	case score >= 60:
		return "amber"
	}
	return "green"
}

// evals returns the expressions the engine evaluates on the case's
// path: one output per script task (valuation, screen, chapter check,
// risk score, route, record) plus the conditions the three splits test
// before taking a branch.
func (c clearanceIn) evals() []string {
	srcs := []string{"value >= 250000 ? 3 : (value >= 50000 ? 2 : 1)", "hazard > 0"}
	if c.Hazard > 0 {
		srcs = append(srcs, "hazard >= 6 ? 40 : 25")
	} else {
		srcs = append(srcs, "0")
	}
	srcs = append(srcs, "chapter >= 28 && chapter <= 38")
	if c.Chapter >= 28 && c.Chapter <= 38 {
		srcs = append(srcs, "15")
	} else {
		srcs = append(srcs, "0")
	}
	srcs = append(srcs, "originRisk + hazardPoints + chapterPoints + valueBand * 5", "score >= 90", "score >= 60 && score < 90")
	return append(srcs, `"`+c.route()+`"`, `route != "red"`)
}

// dgIn is one generated dangerous-goods declaration.
type dgIn struct {
	PortCall string
	UN       int
	Berth    string
	NoShow   bool // the vessel never reports; the no-show timer fires
}

func genDG(r *rand.Rand, n int, seed int64, noShow bool) dgIn {
	return dgIn{
		PortCall: fmt.Sprintf("pc-%d-%d", seed, n),
		UN:       1000 + r.Intn(2500),
		Berth:    fmt.Sprintf("B%02d", 1+r.Intn(40)),
		NoShow:   noShow,
	}
}

func (d dgIn) vars() map[string]any {
	return map[string]any{"portCall": d.PortCall, "unNumber": d.UN}
}

func (d dgIn) permit() string {
	berth := d.Berth
	if d.NoShow {
		berth = "rescheduled"
	}
	return fmt.Sprintf("DG-%d-%s", d.UN, berth)
}

// Expected audit-trail lengths, derived from the models. A clearance
// case records its start and completion and an activation and a
// completion per element on its 14-element path. A DG case records its
// start and completion; 10 activations (the join once per incoming
// token) and 9 completions along its path; created, offered, allocated,
// started and completed for the inspection and created, allocated,
// started and completed for the approval; and the correlated arrival.
const (
	clearanceEvents = 2 + 2*14
	dgEvents        = 2 + 10 + 9 + 5 + 4 + 1
)

// inst is the part of an instance view the workloads read.
type inst struct {
	ID     string
	Status string
	Vars   map[string]any
	Items  map[string]string // element ID -> open work item ID
}

// target is the surface a case drives: bpmsd over HTTP, the API
// handler in process (traced pass A), or the layers directly (pass B).
type target interface {
	start(proc string, vars map[string]any) (*inst, error)
	publish(name, key string, vars map[string]any) (delivered int, err error)
	poll(user string) error
	claim(item, user string) error
	begin(item, user string) error
	complete(item, user string, outcome map[string]any) error
	instance(id string) (*inst, error)
	listActive() (total int, err error)
	tasksOffered() error
	history(id string) (events int, err error)
}

// step is one request of a case. at is its offset from the case's
// arrival in an open-loop schedule. A late step waits on the server's
// own clock (a timer); open-loop runs send it after the schedule, so
// the timer's delay does not hold up the sender.
type step struct {
	at   time.Duration
	read bool
	late bool
	do   func(t target) error
}

// kase is one generated business case and the requests that drive it.
type kase struct {
	proc   string
	steps  []step
	id     string // instance ID, set by the start step
	status string // last acknowledged status
	events int    // expected audit-trail length
	cl     *clearanceIn
	dg     *dgIn
}

// errCheck marks a wrong output (as opposed to a failed request).
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// stepGap spaces the requests of one case in open-loop schedules.
const stepGap = 4 * time.Millisecond

// newClearanceCase builds a one-request case; readBack adds an
// instance-detail read of the result.
func newClearanceCase(in clearanceIn, readBack bool) *kase {
	k := &kase{proc: procClearance, cl: &in, events: clearanceEvents}
	k.steps = append(k.steps, step{do: func(t target) error {
		v, err := t.start(procClearance, in.vars())
		if err != nil {
			return err
		}
		k.id, k.status = v.ID, v.Status
		if v.Status != "completed" || v.Vars["route"] != in.route() {
			return checkf("clearance %s: status %s route %v, want completed %s", v.ID, v.Status, v.Vars["route"], in.route())
		}
		return nil
	}})
	if readBack {
		k.steps = append(k.steps, step{at: stepGap, read: true, do: func(t target) error {
			v, err := t.instance(k.id)
			if err != nil {
				return err
			}
			if v.Vars["route"] != in.route() {
				return checkf("clearance %s read back route %v, want %s", k.id, v.Vars["route"], in.route())
			}
			return nil
		}})
	}
	return k
}

// newDGCase builds the DG request sequence for a harbour master.
func newDGCase(in dgIn, hm string) *kase {
	k := &kase{proc: procDG, dg: &in, events: dgEvents}
	var inspect, approve string
	at := time.Duration(0)
	add := func(read bool, do func(t target) error) {
		k.steps = append(k.steps, step{at: at, read: read, late: in.NoShow && len(k.steps) >= 5, do: do})
		at += stepGap
	}
	add(false, func(t target) error {
		v, err := t.start(procDG, in.vars())
		if err != nil {
			return err
		}
		k.id, k.status, inspect = v.ID, v.Status, v.Items["inspect"]
		if inspect == "" {
			return checkf("dg %s: no inspection work item after start", v.ID)
		}
		return nil
	})
	if !in.NoShow {
		add(false, func(t target) error {
			n, err := t.publish(msgArrival, in.PortCall, map[string]any{"berth": in.Berth})
			if err == nil && n != 1 {
				err = checkf("dg %s: arrival delivered to %d instances, want 1", k.id, n)
			}
			return err
		})
	}
	add(true, func(t target) error { return t.poll(hm) })
	add(false, func(t target) error { return t.claim(inspect, hm) })
	add(false, func(t target) error { return t.begin(inspect, hm) })
	add(false, func(t target) error {
		return t.complete(inspect, hm, map[string]any{"inspected": true})
	})
	add(true, func(t target) error {
		// A no-show case waits for its timer; allow it a bounded delay.
		deadline := time.Now().Add(10 * noShowTimeout)
		for {
			v, err := t.instance(k.id)
			if err != nil {
				return err
			}
			if approve = v.Items["approve"]; approve != "" {
				return nil
			}
			if !in.NoShow || time.Now().After(deadline) {
				return checkf("dg %s: no approval work item after inspection", k.id)
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
	add(false, func(t target) error { return t.begin(approve, userOfficer) })
	add(false, func(t target) error {
		if err := t.complete(approve, userOfficer, map[string]any{"approved": true}); err != nil {
			return err
		}
		k.status = "completed"
		return nil
	})
	return k
}

// seedRand derives a workload's generator from the run seed.
func seedRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}
