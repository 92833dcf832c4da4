package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"lbic"
	"lbic/client"
	"lbic/internal/server"
)

// Served-mix shape. The population is small against the number of
// requests, and the request stream skewed, so nearly every cell is sighted
// in every round and over nine in ten requests are result-cache hits: far
// from 50%, so medians never flip between modes.
// Every third popularity rank, starting at the second, is an uploaded
// trace, so uploads carry the same share of requests under every seed.
const (
	servedPatternCells = 6
	servedTraces       = 4 // uploaded traces, each requested under two ports
	servedTracePorts   = 2
	servedRequests     = 400 // per caller per round
	servedZipfS        = 1.2
	servedInsts        = 30_000
	servedTraceInsts   = 25_000
	servedJobInsts     = 20_000
)

// servedCell is one member of the served population.
type servedCell struct {
	req   client.SimulateRequest
	label string
	insts uint64 // instructions the cell simulates
	// prog is the named program; gen made the uploaded trace.
	prog *lbic.Program
	gen  *lbic.GenParams
}

// servedMix drives an in-process lbicd on loopback, with its default
// options, from inFlight() closed-loop client callers. Each caller sends a
// seeded, skewed stream of /v1/simulate requests over a fixed population;
// first sightings are cold cells that write the result cache, repeats are
// reads. A third of the population is uploaded traces. Caller 0 opens
// each round with one /v1/sweep job followed to completion. Every round
// runs against a freshly started server, so all rounds see the same cache
// behaviour.
type servedMix struct {
	pop     []servedCell
	streams [][]int // per caller: population indices in send order
	job     client.SweepRequest

	srv     *servedServer
	used    bool
	results *servedResults
	// direct holds each cell's in-process Simulate wall time, measured by
	// check; the traced run's server overhead subtracts it.
	direct map[int]time.Duration
}

// servedResults gathers what the server returned, for the check after the
// timed region.
type servedResults struct {
	mu   sync.Mutex
	cell map[int]map[string]bool    // population index -> report hashes served
	job  map[string]map[string]bool // job cell key -> compacted report hashes
	jobC map[string]client.CellResult
}

func (p *servedMix) setup(seed uint64) error {
	// The population and the job are fixed; the seed draws the request
	// streams.
	rng := rand.New(rand.NewPCG(1, 0x5E7FED))
	ports := coldPorts()
	var portNames []string
	for _, i := range rng.Perm(len(ports)) {
		portNames = append(portNames, ports[i].Key())
	}
	nextPort := 0
	pickPort := func() string {
		nextPort++
		return portNames[(nextPort-1)%len(portNames)]
	}

	var named, traces []servedCell
	for _, b := range lbic.BenchmarkNames() {
		prog, err := lbic.BuildBenchmark(b)
		if err != nil {
			return err
		}
		named = append(named, servedCell{
			req:   client.SimulateRequest{Benchmark: b, Port: client.Port(pickPort()), Insts: servedInsts},
			label: b, insts: servedInsts, prog: prog,
		})
	}
	pats := lbic.Patterns()
	for _, i := range rng.Perm(len(pats))[:servedPatternCells] {
		prog, err := lbic.BuildPattern(pats[i].Name)
		if err != nil {
			return err
		}
		named = append(named, servedCell{
			req:   client.SimulateRequest{Pattern: pats[i].Name, Port: client.Port(pickPort()), Insts: servedInsts},
			label: "pat:" + pats[i].Name, insts: servedInsts, prog: prog,
		})
	}
	kinds := lbic.GeneratorKinds()[:servedTraces]
	for i, k := range rng.Perm(len(kinds)) {
		g := drawGen(rng, kinds[k], genFootprints[i%len(genFootprints)])
		rt, err := lbic.RecordGeneratorTrace(g, servedTraceInsts)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := lbic.WriteTraceStream(&buf, rt); err != nil {
			return err
		}
		for j := 0; j < servedTracePorts; j++ {
			traces = append(traces, servedCell{
				req:   client.SimulateRequest{Trace: buf.Bytes(), Port: client.Port(pickPort())},
				label: "trace:" + rt.Name(), insts: rt.Len(), gen: &g,
			})
		}
	}
	rng.Shuffle(len(named), func(i, j int) { named[i], named[j] = named[j], named[i] })
	rng.Shuffle(len(traces), func(i, j int) { traces[i], traces[j] = traces[j], traces[i] })
	p.pop = nil
	for len(named)+len(traces) > 0 {
		if len(p.pop)%3 == 1 && len(traces) > 0 || len(named) == 0 {
			p.pop, traces = append(p.pop, traces[0]), traces[1:]
		} else {
			p.pop, named = append(p.pop, named[0]), named[1:]
		}
	}

	p.streams = make([][]int, inFlight())
	for c := range p.streams {
		z := rand.NewZipf(rand.New(rand.NewPCG(seed, uint64(c)+1)), servedZipfS, 1, uint64(len(p.pop)-1))
		for i := 0; i < servedRequests; i++ {
			p.streams[c] = append(p.streams[c], int(z.Uint64()))
		}
	}
	p.job = client.SweepRequest{Insts: servedJobInsts}
	benches := lbic.BenchmarkNames()
	for _, i := range rng.Perm(len(benches))[:3] {
		p.job.Benchmarks = append(p.job.Benchmarks, benches[i])
	}
	for _, i := range rng.Perm(len(portNames))[:3] {
		p.job.Ports = append(p.job.Ports, client.Port(portNames[i]))
	}
	p.results = &servedResults{
		cell: map[int]map[string]bool{},
		job:  map[string]map[string]bool{},
		jobC: map[string]client.CellResult{},
	}
	var err error
	p.srv, err = startServer()
	return err
}

// servedServer is one lbicd instance on a loopback listener.
type servedServer struct {
	srv  *server.Server
	hs   *http.Server
	tr   *http.Transport
	cl   *client.Client
	done chan error
}

func startServer() (*servedServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &servedServer{srv: server.New(server.Options{}), done: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.tr = &http.Transport{MaxIdleConnsPerHost: inFlight()}
	s.cl = client.New("http://" + ln.Addr().String())
	s.cl.HTTPClient = &http.Client{Transport: s.tr}
	go func() { s.done <- s.hs.Serve(ln) }()
	if err := s.cl.Healthz(context.Background()); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the listener and the server down and waits for Serve to return.
func (s *servedServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // on timeout Close below cancels what remains
	s.srv.Close()
	s.tr.CloseIdleConnections()
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("served-mix: server exited: %v\n", err)
	}
}

func (p *servedMix) beforeRound() error {
	if !p.used {
		p.used = true
		return nil
	}
	p.srv.stop()
	var err error
	p.srv, err = startServer()
	return err
}

// cell states within a round, for classifying each request.
const (
	unseen = iota
	inflight
	finished
)

// request classes.
const (
	classMiss = iota
	classShared
	classHit
)

type servedOut struct {
	lat   time.Duration
	class int
	idx   int
}

func (p *servedMix) round(s *roundSample) error {
	var (
		mu    sync.Mutex
		state = make([]int, len(p.pop))
		wg    sync.WaitGroup
		outs  = make([][]servedOut, len(p.streams))
		errs  = make([]tally, len(p.streams))
		jobD  time.Duration
		jobT  tally
	)
	ctx := context.Background()
	cl := p.srv.cl
	for c, stream := range p.streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c == 0 {
				jobD, jobT = p.runJob(ctx, cl)
			}
			for _, idx := range stream {
				mu.Lock()
				class := classHit
				switch state[idx] {
				case unseen:
					class, state[idx] = classMiss, inflight
				case inflight:
					class = classShared
				}
				mu.Unlock()
				t0 := time.Now()
				raw, err := cl.Simulate(ctx, p.pop[idx].req)
				lat := time.Since(t0)
				mu.Lock()
				state[idx] = finished
				mu.Unlock()
				errs[c].attempted++
				if err != nil {
					errs[c].fail("served-mix %s on %s: %v", p.pop[idx].label, p.pop[idx].req.Port.Name, err)
					continue
				}
				p.results.addCell(idx, raw)
				outs[c] = append(outs[c], servedOut{lat: lat, class: class, idx: idx})
			}
		}()
	}
	wg.Wait()

	s.add(jobT)
	s.ops++
	s.jobs = append(s.jobs, jobD)
	s.insts += uint64(len(p.job.Benchmarks)*len(p.job.Ports)) * servedJobInsts
	for c := range outs {
		s.add(errs[c])
		for _, o := range outs[c] {
			s.ops++
			s.all = append(s.all, o.lat)
			switch o.class {
			case classMiss:
				s.miss = append(s.miss, o.lat)
				s.insts += p.pop[o.idx].insts
			case classHit:
				s.hit = append(s.hit, o.lat)
			}
		}
	}
	return nil
}

// runJob submits the round's sweep job and follows it to completion.
func (p *servedMix) runJob(ctx context.Context, cl *client.Client) (time.Duration, tally) {
	var t tally
	t.attempted++
	t0 := time.Now()
	st, err := cl.Sweep(ctx, p.job)
	if err == nil {
		st, err = cl.Wait(ctx, st.ID)
	}
	d := time.Since(t0)
	if err != nil {
		t.fail("served-mix sweep job: %v", err)
		return d, t
	}
	want := len(p.job.Benchmarks) * len(p.job.Ports)
	if st.State != "done" || st.Failed != 0 || len(st.Results) != want {
		t.fail("served-mix sweep job ended %s with %d failed and %d of %d results",
			st.State, st.Failed, len(st.Results), want)
	}
	for _, r := range st.Results {
		if r.Error != "" {
			t.fail("served-mix sweep cell %s: %s", r.Key, r.Error)
			continue
		}
		p.results.addJob(r)
	}
	return d, t
}

func (r *servedResults) addCell(idx int, raw []byte) {
	h := sha256.Sum256(raw)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cell[idx] == nil {
		r.cell[idx] = map[string]bool{}
	}
	r.cell[idx][hex.EncodeToString(h[:])] = true
}

func (r *servedResults) addJob(c client.CellResult) {
	var buf bytes.Buffer
	sum := "uncompactable"
	if json.Compact(&buf, c.Report) == nil {
		h := sha256.Sum256(buf.Bytes())
		sum = hex.EncodeToString(h[:])
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.job[c.Key] == nil {
		r.job[c.Key] = map[string]bool{}
		r.jobC[c.Key] = c
	}
	r.job[c.Key][sum] = true
}

// directReport runs a request's configuration in-process — Simulate,
// NewReport, WriteJSON — to produce the bytes the server must serve.
func directReport(req client.SimulateRequest) ([]byte, lbic.Result, error) {
	port, err := req.Port.Resolve()
	if err != nil {
		return nil, lbic.Result{}, err
	}
	cfg := lbic.DefaultConfig()
	cfg.Port = port
	cfg.MaxInsts = req.Insts
	var res lbic.Result
	switch {
	case req.Trace != nil:
		rt, err := lbic.ReadTraceStream(bytes.NewReader(req.Trace))
		if err != nil {
			return nil, res, err
		}
		res, err = lbic.SimulateTrace(context.Background(), rt, cfg)
		if err != nil {
			return nil, res, err
		}
	default:
		var prog *lbic.Program
		if req.Pattern != "" {
			prog, err = lbic.BuildPattern(req.Pattern)
		} else {
			prog, err = lbic.BuildBenchmark(req.Benchmark)
		}
		if err != nil {
			return nil, res, err
		}
		if res, err = lbic.Simulate(prog, cfg); err != nil {
			return nil, res, err
		}
	}
	var buf bytes.Buffer
	if err := lbic.NewReport(res).WriteJSON(&buf); err != nil {
		return nil, res, err
	}
	return buf.Bytes(), res, nil
}

// check compares every served report with a direct in-process run of the
// same configuration: /v1/simulate bytes must be identical, and sweep-job
// reports identical once compacted (the job document embeds them).
func (p *servedMix) check() (tally, error) {
	var t tally
	p.direct = map[int]time.Duration{}
	for idx := range p.pop {
		got, ok := p.results.cell[idx]
		if !ok {
			continue
		}
		t0 := time.Now()
		want, _, err := directReport(p.pop[idx].req)
		p.direct[idx] = time.Since(t0)
		if err != nil {
			return t, fmt.Errorf("direct run of %s: %w", p.pop[idx].label, err)
		}
		h := sha256.Sum256(want)
		for sum := range got {
			if sum != hex.EncodeToString(h[:]) {
				t.fail("served-mix %s on %s: served report differs from the direct run",
					p.pop[idx].label, p.pop[idx].req.Port.Name)
			}
		}
	}
	for key, sums := range p.results.job {
		c := p.results.jobC[key]
		want, _, err := directReport(client.SimulateRequest{Benchmark: c.Benchmark, Port: client.Port(c.Port), Insts: servedJobInsts})
		if err != nil {
			return t, fmt.Errorf("direct run of %s: %w", key, err)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, want); err != nil {
			return t, err
		}
		h := sha256.Sum256(buf.Bytes())
		for sum := range sums {
			if sum != hex.EncodeToString(h[:]) {
				t.fail("served-mix sweep cell %s: report differs from the direct run", key)
			}
		}
	}
	return t, nil
}

// digest hashes the served reports, which check proved identical to the
// direct runs, in population order and then by job cell key.
func (p *servedMix) digest() string {
	h := sha256.New()
	for idx := range p.pop {
		for sum := range p.results.cell[idx] {
			fmt.Fprintf(h, "%d %s\n", idx, sum)
		}
	}
	for _, key := range sortedSet(p.results.job) {
		for sum := range p.results.job[key] {
			fmt.Fprintf(h, "%s %s\n", key, sum)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (p *servedMix) close() {
	if p.srv != nil {
		p.srv.stop()
		p.srv = nil
	}
}

func (p *servedMix) traceInsts() uint64 { return 10_000 }

// cells are the traced run's cells: the population, with named programs
// replayed as the server's trace cache serves them.
func (p *servedMix) cells() ([]cellSpec, error) {
	out := make([]cellSpec, 0, len(p.pop))
	for _, c := range p.pop {
		port, err := c.req.Port.Resolve()
		if err != nil {
			return nil, err
		}
		out = append(out, cellSpec{name: c.label, port: port, insts: c.insts,
			prog: c.prog, gen: c.gen, upload: c.req.Trace, replay: c.prog != nil})
	}
	return out, nil
}
