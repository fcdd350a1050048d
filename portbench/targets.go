package main

import (
	"context"

	"bpms/internal/client"
	"bpms/internal/core"
	"bpms/internal/engine"
	"bpms/internal/task"
)

// httpTarget drives the v1 API through the typed client: bpmsd over a
// real connection, or the API handler in process for traced pass A.
type httpTarget struct {
	c *client.Client
}

var bg = context.Background()

func fromClient(v *client.Instance) *inst {
	out := &inst{ID: v.ID, Status: v.Status, Vars: v.Vars, Items: map[string]string{}}
	for _, t := range v.Tokens {
		if t.WorkItemID != "" {
			out.Items[t.Element] = t.WorkItemID
		}
	}
	return out
}

func (h httpTarget) start(proc string, vars map[string]any) (*inst, error) {
	v, err := h.c.StartInstance(bg, proc, vars)
	if err != nil {
		return nil, err
	}
	return fromClient(v), nil
}

func (h httpTarget) publish(name, key string, vars map[string]any) (int, error) {
	n, _, err := h.c.Publish(bg, name, key, vars)
	return n, err
}

func (h httpTarget) poll(user string) error {
	_, err := h.c.Tasks(bg, client.TaskQuery{User: user, State: "offered", Limit: 20})
	return err
}

func (h httpTarget) claim(item, user string) error {
	_, err := h.c.Claim(bg, item, user)
	return err
}

func (h httpTarget) begin(item, user string) error {
	_, err := h.c.StartTask(bg, item, user)
	return err
}

func (h httpTarget) complete(item, user string, outcome map[string]any) error {
	_, err := h.c.CompleteTask(bg, item, user, outcome)
	return err
}

func (h httpTarget) instance(id string) (*inst, error) {
	v, err := h.c.Instance(bg, id)
	if err != nil {
		return nil, err
	}
	return fromClient(v), nil
}

func (h httpTarget) listActive() (int, error) {
	p, err := h.c.Instances(bg, client.InstanceQuery{State: "active", Limit: 50})
	if err != nil {
		return 0, err
	}
	return p.Total, nil
}

func (h httpTarget) tasksOffered() error {
	_, err := h.c.Tasks(bg, client.TaskQuery{State: "offered", Limit: 50})
	return err
}

func (h httpTarget) history(id string) (int, error) {
	evs, err := h.c.History(bg, id)
	return len(evs), err
}

// directTarget calls the layers below the API — the shard router, the
// worklist and the history store — the way the handlers do, and times
// each call as a pass-B span.
type directTarget struct {
	b  *core.BPMS
	tr *tracer // nil: untimed (lifetime building)
}

func fromView(v *engine.InstanceView) *inst {
	out := &inst{ID: v.ID, Status: v.Status.String(), Vars: map[string]any{}, Items: map[string]string{}}
	for k, val := range v.Vars {
		out.Vars[k] = val.ToGo()
	}
	for _, t := range v.ActiveTokens {
		if t.WorkItemID != "" {
			out.Items[t.Element] = t.WorkItemID
		}
	}
	return out
}

func (d directTarget) span(name string) func() {
	if d.tr == nil {
		return func() {}
	}
	return d.tr.time(name)
}

func (d directTarget) start(proc string, vars map[string]any) (*inst, error) {
	done := d.span("shard.start")
	v, err := d.b.Engine.StartInstance(proc, vars)
	done()
	if err != nil {
		return nil, err
	}
	return fromView(v), nil
}

func (d directTarget) publish(name, key string, vars map[string]any) (int, error) {
	defer d.span("shard.publish")()
	n, _, err := d.b.Engine.Publish(name, key, vars)
	return n, err
}

func (d directTarget) poll(user string) error {
	defer d.span("task.poll")()
	d.b.Tasks.OfferedPage(user, 0, 20)
	return nil
}

func (d directTarget) claim(item, user string) error {
	defer d.span("task.claim")()
	_, err := d.b.Tasks.Claim(item, user)
	return err
}

func (d directTarget) begin(item, user string) error {
	defer d.span("task.start")()
	_, err := d.b.Tasks.Start(item, user)
	return err
}

func (d directTarget) complete(item, user string, outcome map[string]any) error {
	defer d.span("task.complete")()
	_, err := d.b.Tasks.Complete(item, user, outcome)
	return err
}

func (d directTarget) instance(id string) (*inst, error) {
	done := d.span("shard.instance")
	v, err := d.b.Engine.Instance(id)
	done()
	if err != nil {
		return nil, err
	}
	return fromView(v), nil
}

func (d directTarget) listActive() (int, error) {
	defer d.span("shard.summaries")()
	n := 0
	for _, s := range d.b.Engine.Summaries() {
		if s.Status == engine.StatusActive {
			n++
		}
	}
	return n, nil
}

func (d directTarget) tasksOffered() error {
	defer d.span("task.by_state")()
	d.b.Tasks.ByStatePage(task.Offered, 0, 50)
	return nil
}

func (d directTarget) history(id string) (int, error) {
	defer d.span("history.events_of")()
	return len(d.b.History.EventsOf(id)), nil
}
