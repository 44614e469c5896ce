package hier

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/perfmodel"
	"repro/internal/proto"
	"repro/internal/units"
)

// ProxyConfig parameterizes a rack proxy daemon.
type ProxyConfig struct {
	// ID is the rack's job identity toward the cluster manager.
	ID string
	// Upstream is the connection to the cluster manager. Required.
	Upstream *proto.Conn
	// ExpectedJobs is how many member jobs the proxy waits for before
	// announcing itself upstream; the rack's node count is fixed at that
	// point. Required positive.
	ExpectedJobs int
	// Clock paces the report loop. Required.
	Clock clock.Clock
	// Period is the upstream report period (default 1 s).
	Period time.Duration
}

type proxyMember struct {
	id       string
	nodes    int
	conn     *proto.Conn
	model    perfmodel.Model
	hasModel bool
	power    units.Power
	lastCap  units.Power
}

// Proxy is the additional control level §8 proposes: it stands between
// the cluster manager and several job endpoints, presenting the member
// jobs as one aggregate job upstream and re-balancing the granted budget
// locally. The cluster tier's connection count and rebudget fan-out drop
// from per-job to per-rack.
type Proxy struct {
	cfg ProxyConfig

	mu      sync.Mutex
	members map[string]*proxyMember
	joined  chan struct{} // closed when ExpectedJobs have said Hello
	once    sync.Once
	wg      sync.WaitGroup
}

// NewProxy validates the configuration and constructs a proxy.
func NewProxy(cfg ProxyConfig) (*Proxy, error) {
	switch {
	case cfg.ID == "":
		return nil, errors.New("hier: proxy requires an ID")
	case cfg.Upstream == nil:
		return nil, errors.New("hier: proxy requires an upstream connection")
	case cfg.ExpectedJobs < 1:
		return nil, errors.New("hier: proxy requires expected job count")
	case cfg.Clock == nil:
		return nil, errors.New("hier: proxy requires a clock")
	}
	if cfg.Period <= 0 {
		cfg.Period = time.Second
	}
	return &Proxy{
		cfg:     cfg,
		members: map[string]*proxyMember{},
		joined:  make(chan struct{}),
	}, nil
}

// AttachJob registers one downstream job connection; the first message
// must be its Hello. Served on its own goroutine until the connection
// drops.
func (p *Proxy) AttachJob(c *proto.Conn) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.handleMember(c)
	}()
}

func (p *Proxy) handleMember(c *proto.Conn) {
	defer c.Close()
	first, err := c.Recv()
	if err != nil || first.Kind != proto.KindHello || !first.Hello.Registrable() {
		return
	}
	m := &proxyMember{id: first.Hello.JobID, nodes: first.Hello.Nodes, conn: c}
	p.mu.Lock()
	p.members[m.id] = m
	if len(p.members) >= p.cfg.ExpectedJobs {
		p.once.Do(func() { close(p.joined) })
	}
	p.mu.Unlock()

	for {
		env, err := c.Recv()
		if err != nil {
			return
		}
		switch env.Kind {
		case proto.KindModelUpdate:
			u := env.ModelUpdate
			mdl := u.Model()
			p.mu.Lock()
			m.power = units.Power(u.PowerWatts)
			if mdl.Validate() == nil {
				m.model = mdl
				m.hasModel = true
			}
			p.mu.Unlock()
		case proto.KindGoodbye:
			return
		}
	}
}

// rack snapshots the members as budgeter jobs in job-ID order, so the
// rack model fitted over them and the summed power are bit-identical from
// period to period while the members are unchanged. Members that have not
// yet reported a model are skipped (they keep their last cap).
func (p *Proxy) rack() (Rack, units.Power, map[string]*proto.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	members := make([]*proxyMember, 0, len(p.members))
	for _, m := range p.members {
		members = append(members, m)
	}
	slices.SortFunc(members, func(a, b *proxyMember) int { return strings.Compare(a.id, b.id) })
	r := Rack{ID: p.cfg.ID}
	var power units.Power
	conns := map[string]*proto.Conn{}
	for _, m := range members {
		power += m.power
		if !m.hasModel {
			continue
		}
		r.Jobs = append(r.Jobs, budget.Job{ID: m.id, Nodes: m.nodes, Model: m.model})
		conns[m.id] = m.conn
	}
	return r, power, conns
}

// Run announces the rack upstream once all expected members have joined,
// then bridges: member models aggregate into one upstream ModelUpdate per
// period, and each upstream SetBudget is re-balanced across members.
func (p *Proxy) Run(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return nil
	case <-p.joined:
	}
	p.mu.Lock()
	nodes := 0
	for _, m := range p.members {
		nodes += m.nodes
	}
	p.mu.Unlock()
	if err := p.cfg.Upstream.Send(proto.Envelope{Kind: proto.KindHello, Hello: &proto.Hello{
		JobID: p.cfg.ID, Nodes: nodes,
	}}); err != nil {
		return err
	}

	recvErr := make(chan error, 1)
	go func() {
		for {
			env, err := p.cfg.Upstream.Recv()
			if err != nil {
				recvErr <- err
				return
			}
			if env.Kind != proto.KindSetBudget {
				continue
			}
			rack, _, conns := p.rack()
			if len(rack.Jobs) == 0 {
				continue
			}
			alloc := rack.Distribute(units.Power(env.SetBudget.PowerCapWatts))
			for id, cap := range alloc {
				_ = conns[id].Send(proto.Envelope{Kind: proto.KindSetBudget, SetBudget: &proto.SetBudget{
					JobID: id, PowerCapWatts: cap.Watts(),
				}})
			}
			p.mu.Lock()
			for id, cap := range alloc {
				if m, ok := p.members[id]; ok {
					m.lastCap = cap
				}
			}
			p.mu.Unlock()
		}
	}()

	for {
		select {
		case <-ctx.Done():
			_ = p.cfg.Upstream.Send(proto.Envelope{Kind: proto.KindGoodbye, Goodbye: &proto.Goodbye{JobID: p.cfg.ID}})
			err := p.cfg.Upstream.Close()
			<-recvErr
			return err
		case err := <-recvErr:
			p.cfg.Upstream.Close()
			return err
		case <-p.cfg.Clock.After(p.cfg.Period):
			rack, power, _ := p.rack()
			if len(rack.Jobs) == 0 {
				continue
			}
			model, err := RackModel(rack.Jobs)
			if err != nil {
				continue
			}
			update := proto.ModelUpdateFor(p.cfg.ID, model, true)
			update.PowerWatts = power.Watts()
			update.TimestampUnixNano = p.cfg.Clock.Now().UnixNano()
			if err := p.cfg.Upstream.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &update}); err != nil {
				p.cfg.Upstream.Close()
				<-recvErr
				return err
			}
		}
	}
}

// MemberCap reports the cap last forwarded to a member.
func (p *Proxy) MemberCap(id string) (units.Power, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.members[id]
	if !ok {
		return 0, false
	}
	return m.lastCap, true
}
