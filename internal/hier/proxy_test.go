package hier

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/clustermgr"
	"repro/internal/perfmodel"
	"repro/internal/proto"
	"repro/internal/units"
	"repro/internal/workload"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fakeMember simulates a job endpoint connected to the proxy: it says
// Hello, streams one trained model update, and records received caps.
type fakeMember struct {
	conn *proto.Conn
	caps chan units.Power
}

func attachFakeMember(t *testing.T, p *Proxy, id string, nodes int, m perfmodel.Model) *fakeMember {
	t.Helper()
	a, b := net.Pipe()
	p.AttachJob(proto.NewConn(a))
	fm := &fakeMember{conn: proto.NewConn(b), caps: make(chan units.Power, 64)}
	if err := fm.conn.Send(proto.Envelope{Kind: proto.KindHello, Hello: &proto.Hello{JobID: id, Nodes: nodes}}); err != nil {
		t.Fatal(err)
	}
	update := proto.ModelUpdateFor(id, m, true)
	update.PowerWatts = m.PMax.Watts() * float64(nodes)
	if err := fm.conn.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &update}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			env, err := fm.conn.Recv()
			if err != nil {
				return
			}
			if env.Kind == proto.KindSetBudget {
				fm.caps <- units.Power(env.SetBudget.PowerCapWatts)
			}
		}
	}()
	return fm
}

func TestNewProxyValidation(t *testing.T) {
	a, _ := net.Pipe()
	conn := proto.NewConn(a)
	defer conn.Close()
	good := ProxyConfig{ID: "r", Upstream: conn, ExpectedJobs: 1, Clock: clock.Real{}}
	if _, err := NewProxy(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*ProxyConfig){
		"id":       func(c *ProxyConfig) { c.ID = "" },
		"upstream": func(c *ProxyConfig) { c.Upstream = nil },
		"expected": func(c *ProxyConfig) { c.ExpectedJobs = 0 },
		"clock":    func(c *ProxyConfig) { c.Clock = nil },
	} {
		cfg := good
		mutate(&cfg)
		if _, err := NewProxy(cfg); err == nil {
			t.Errorf("config without %s accepted", name)
		}
	}
}

// TestProxyRefusesHelloWithoutIDOrNodes: the proxy's member handshake
// applies the cluster manager's check, so a bad Hello cannot reach the
// rack's aggregate node count upstream.
func TestProxyRefusesHelloWithoutIDOrNodes(t *testing.T) {
	a, _ := net.Pipe()
	upstream := proto.NewConn(a)
	defer upstream.Close()
	p, err := NewProxy(ProxyConfig{ID: "r", Upstream: upstream, ExpectedJobs: 1, Clock: clock.Real{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []proto.Hello{{JobID: "liar", Nodes: 0}, {JobID: "liar", Nodes: -4}, {Nodes: 2}} {
		c, d := net.Pipe()
		p.AttachJob(proto.NewConn(c))
		member := proto.NewConn(d)
		member.SetTimeouts(2*time.Second, 0)
		if err := member.Send(proto.Envelope{Kind: proto.KindHello, Hello: &h}); err != nil {
			t.Fatal(err)
		}
		if _, err := member.Recv(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("hello %+v: proxy kept the connection open (recv err %v)", h, err)
		}
		member.Close()
	}
	p.wg.Wait()
	if n := len(p.members); n != 0 {
		t.Errorf("members = %d, want 0", n)
	}
}

// TestProxyBridgesClusterAndMembers wires a real cluster manager to a
// rack proxy fronting BT and SP members: the manager sees one connection,
// while both members receive caps whose believed slowdowns equalize — the
// §8 hierarchy working end to end over the real protocol.
func TestProxyBridgesClusterAndMembers(t *testing.T) {
	v := clock.NewVirtual(t0)
	mgr, err := clustermgr.NewManager(clustermgr.Config{
		Clock:        clock.Real{}, // manager ticked manually below
		Budgeter:     budget.EvenSlowdown{},
		Target:       func(time.Time) units.Power { return 840 },
		TotalNodes:   4,
		UseFeedback:  true, // rack models arrive as trained updates
		DefaultModel: workload.LeastSensitive().RelativeModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	up, down := net.Pipe()
	mgr.AttachConn(proto.NewConn(down))
	proxy, err := NewProxy(ProxyConfig{
		ID:           "rack-0",
		Upstream:     proto.NewConn(up),
		ExpectedJobs: 2,
		Clock:        v,
		Period:       time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	proxyDone := make(chan error, 1)
	go func() { proxyDone <- proxy.Run(ctx) }()

	bt := workload.MustByName("bt")
	sp := workload.MustByName("sp")
	btm := attachFakeMember(t, proxy, "bt-0", 2, bt.RelativeModel())
	spm := attachFakeMember(t, proxy, "sp-0", 2, sp.RelativeModel())

	// Wait until the manager has registered the rack as one job.
	waitFor(t, func() bool { return mgr.ActiveJobs() == 1 })

	// Pump: proxy report periods (virtual clock) and manager ticks.
	var btCap, spCap units.Power
	deadline := time.Now().Add(10 * time.Second)
	for btCap == 0 || spCap == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("caps never reached members: bt %v sp %v", btCap, spCap)
		}
		v.Advance(time.Second)
		time.Sleep(2 * time.Millisecond)
		mgr.Tick()
		for {
			select {
			case c := <-btm.caps:
				btCap = c
				continue
			case c := <-spm.caps:
				spCap = c
				continue
			default:
			}
			break
		}
	}

	// The rack re-balances locally with even-slowdown: BT gets more power
	// than SP under the shared tight budget.
	if btCap <= spCap {
		t.Errorf("btCap %v ≤ spCap %v through the rack proxy", btCap, spCap)
	}
	// Slowdowns approximately equalized.
	btS := bt.RelativeModel().SlowdownAt(btCap)
	spS := sp.RelativeModel().SlowdownAt(spCap)
	if diff := btS - spS; diff > 0.05 || diff < -0.05 {
		t.Errorf("member slowdowns not equalized: bt %.3f sp %.3f", btS, spS)
	}
	if cap, ok := proxy.MemberCap("bt-0"); !ok || cap != btCap {
		t.Errorf("MemberCap = %v, %v", cap, ok)
	}

	cancel()
	select {
	case <-proxyDone:
	case <-time.After(5 * time.Second):
		t.Fatal("proxy did not stop")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRackIsDeterministic holds the rack snapshot to job-ID order: the
// same members inserted in two orders, snapshotted repeatedly, give a
// bit-identical job list, summed power and fitted rack model, so an
// unchanged rack never sends a different upstream model.
func TestRackIsDeterministic(t *testing.T) {
	var members []*proxyMember
	for i := 0; i < 3; i++ {
		for j, typ := range workload.Catalog() {
			n := i*len(workload.Catalog()) + j
			m := typ.RelativeModel()
			m.PMax -= units.Power(n) * 0.37 // fractional ranges make float sums order-sensitive
			members = append(members, &proxyMember{
				id: fmt.Sprintf("m-%02d", n), nodes: typ.Nodes, model: m,
				hasModel: n != 5, power: units.Power(100.1 * float64(n+1)),
			})
		}
	}
	proxyWith := func(order []*proxyMember) *Proxy {
		p := &Proxy{cfg: ProxyConfig{ID: "r"}, members: map[string]*proxyMember{}}
		for _, m := range order {
			p.members[m.id] = m
		}
		return p
	}
	reversed := slices.Clone(members)
	slices.Reverse(reversed)

	want, wantPower, _ := proxyWith(members).rack()
	wantModel, err := RackModel(want.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Proxy{proxyWith(members), proxyWith(reversed)} {
		for k := 0; k < 10; k++ {
			got, power, conns := p.rack()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("snapshot %d: rack jobs %v, want %v", k, jobIDs(got.Jobs), jobIDs(want.Jobs))
			}
			if math.Float64bits(power.Watts()) != math.Float64bits(wantPower.Watts()) {
				t.Fatalf("snapshot %d: rack power %v, want %v", k, power, wantPower)
			}
			if len(conns) != len(members)-1 {
				t.Fatalf("snapshot %d: %d conns, want %d", k, len(conns), len(members)-1)
			}
			model, err := RackModel(got.Jobs)
			if err != nil {
				t.Fatal(err)
			}
			if model != wantModel {
				t.Fatalf("snapshot %d: rack model %+v, want %+v", k, model, wantModel)
			}
		}
	}
}

func jobIDs(jobs []budget.Job) []string {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}
