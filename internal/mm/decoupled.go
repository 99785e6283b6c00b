package mm

import (
	"fmt"
	"math/bits"

	"addrxlat/internal/ballsbins"
	"addrxlat/internal/core"
	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
)

// DecoupledConfig configures Theorem 4's algorithm Z.
type DecoupledConfig struct {
	// Alloc selects the RAM-allocation scheme (core.IcebergAlloc for the
	// headline Theorem 3 construction; core.SingleChoice for Theorem 1).
	Alloc core.AllocKind
	// RAMPages P and VirtualPages V size the machine in base pages.
	RAMPages     uint64
	VirtualPages uint64
	// TLBEntries ℓ and ValueBits w define the TLB hardware.
	TLBEntries int
	ValueBits  int
	// TLBPolicy is X's replacement policy (over size-hmax huge pages);
	// RAMPolicy is Y's replacement policy (over base pages, capacity
	// m = (1−δ)P). The paper's experiments use LRU for both.
	TLBPolicy policy.Kind
	RAMPolicy policy.Kind
	// Seed feeds the scheme's hash functions and randomized policies.
	Seed uint64
}

func (c *DecoupledConfig) validate() error {
	if c.Alloc == "" {
		c.Alloc = core.IcebergAlloc
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("mm: TLB entries must be positive, got %d", c.TLBEntries)
	}
	if c.ValueBits <= 0 {
		c.ValueBits = 64
	}
	if c.TLBPolicy == "" {
		c.TLBPolicy = policy.LRUKind
	}
	if c.RAMPolicy == "" {
		c.RAMPolicy = policy.LRUKind
	}
	return nil
}

// Decoupled is the paper's algorithm Z (Theorem 4): a huge-page decoupling
// scheme D combined with a TLB-replacement policy X over virtual huge
// pages of size hmax and a RAM-replacement policy Y over base pages with
// capacity (1−δ)P.
//
// On each request v:
//
//   - TLB side: huge page u = r(v) is looked up; a miss costs ε and
//     inserts u with value ψ(u) (evicting per X). ψ updates while u is
//     TLB-resident are free, per the model.
//   - RAM side: if v is not in Y's active set, one IO (cost 1) brings it
//     in; Y's eviction is pushed through D (PageOut) so φ stays in sync.
//     D assigns v a bucket slot; on a paging failure v enters F.
//   - Failure handling: a request to a page in F is serviced with one
//     temporary IO plus one decoding miss (cost 1+ε), exactly the
//     Theorem 4 recipe; the page remains failed until Y evicts it.
type Decoupled struct {
	cfg     DecoupledConfig
	params  core.Params
	scheme  *core.Scheme
	tlb     *tlb.TLB
	ramY    policy.Policy    // Y: base-page cache of capacity m
	ramFlat *policy.DenseLRU // ramY, when it is the key-indexed LRU

	costs       Costs
	ex          *explain.Counters
	failureHits uint64 // requests serviced while the page was in F

	// hshift is log₂ hmax (HMax is a power of two): v >> hshift is v's
	// huge page. miss is the TLB pass's packed miss-key column, reused
	// across batches so steady-state batches allocate nothing.
	hshift uint
	miss   []uint64
}

var _ Algorithm = (*Decoupled)(nil)

// NewDecoupled builds algorithm Z from the configuration.
func NewDecoupled(cfg DecoupledConfig) (*Decoupled, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	params, err := core.DeriveParams(cfg.Alloc, cfg.RAMPages, cfg.VirtualPages, cfg.ValueBits)
	if err != nil {
		return nil, err
	}
	scheme, err := core.NewScheme(params, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The TLB's keys are huge pages v>>hshift < V/hmax+1; Y's are base
	// pages v < V.
	hshift := uint(bits.TrailingZeros64(uint64(params.HMax)))
	cache, err := tlb.New(cfg.TLBEntries, cfg.VirtualPages>>hshift+1, cfg.TLBPolicy, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	ramY, err := policy.NewKeyed(cfg.RAMPolicy, int(params.MaxResident), cfg.VirtualPages, cfg.Seed+3)
	if err != nil {
		return nil, err
	}
	z := &Decoupled{
		cfg:    cfg,
		params: params,
		scheme: scheme,
		tlb:    cache,
		ramY:   ramY,
		hshift: hshift,
	}
	z.ramFlat, _ = ramY.(*policy.DenseLRU)
	return z, nil
}

// Access implements Algorithm: AccessBatch over one request.
func (z *Decoupled) Access(v uint64) {
	vs := [1]uint64{v}
	z.AccessBatch(vs[:])
}

// AccessBatch implements Algorithm; it is Z's one access body. The chunk
// is processed as two independent column passes instead of one
// interleaved per-access loop. The decoupling makes this exact: the TLB
// column lives in the huge-page keyspace and the RAM/decode column in the
// base-page keyspace, the scheme never invalidates or revalues TLB
// entries mid-stream, X and Y draw on separate seeds, and every cost
// counter is a sum — so reordering work *between* columns (while
// preserving order *within* each) yields the counters of servicing each
// request in turn (TestStagedBatchMatchesScalar checks them against a
// reference model).
//
//   - Pass 1 walks the request column through Y. A miss costs one IO and
//     pages v in through D after paging out Y's victim — bucket loads
//     depend on that out-before-in order, so misses resolve in stream
//     order. A victim Y reports on a hit (multi-queue policies such as
//     ARC or 2Q may evict when promoting) is paged out too. A request to
//     a page in F is then serviced with one temporary IO plus one
//     decoding miss (1+ε, Theorem 4's recipe); every other request must
//     decode. On the key-indexed LRU, consecutive repeats of one page
//     collapse: a repeat is a hit of the MRU entry with no scheme
//     traffic, and its decode check is a pure re-read; only failed pages
//     re-charge 1+ε per repeat.
//   - Pass 2 probes the huge-page column through X (TLB.ProbeFill), a
//     miss costing ε and packing its key into the reused miss column;
//     with attribution armed the keys replay into the TLB-miss
//     classifier, whose state is per-key, so column order preserves its
//     answers.
func (z *Decoupled) AccessBatch(vs []uint64) {
	scheme, ry, flat := z.scheme, z.ramY, z.ramFlat
	var ios, decodes, fhits uint64
	var prevV uint64
	failed, havePrev := false, false
	for _, v := range vs {
		if havePrev && v == prevV {
			if failed {
				ios++
				decodes++
				fhits++
				z.ex.FailureIO(1)
				z.ex.DecodeMiss()
			}
			continue
		}
		havePrev, prevV = flat != nil, v // repeats collapse only under LRU
		var hit bool
		var victim uint64
		if flat != nil {
			hit, victim = flat.Access(v)
		} else {
			hit, victim = ry.Access(v)
		}
		if hit {
			if victim != policy.NoEviction {
				z.ex.Evict()
				scheme.PageOut(victim)
			}
			failed = scheme.IsFailed(v)
		} else {
			ios++
			z.ex.DemandIO()
			evicted := victim != policy.NoEviction
			if evicted {
				z.ex.Evict()
			}
			failed = scheme.ResolveMiss(v, victim, evicted)
		}
		if failed {
			ios++
			decodes++
			fhits++
			z.ex.FailureIO(1)
			z.ex.DecodeMiss()
			continue
		}
		if phys := scheme.Lookup(v); phys == core.NullAddress {
			panic(fmt.Sprintf("mm: resident page %d failed to decode", v))
		}
	}

	// Pass 2: TLB column probe over huge-page keys, misses packed into
	// the reused miss column (grown once per high-water chunk size).
	if cap(z.miss) < len(vs) {
		z.miss = make([]uint64, 0, len(vs))
	}
	miss := z.tlb.ProbeFill(vs, z.hshift, z.miss[:0])
	z.miss = miss
	if z.ex != nil {
		for _, u := range miss {
			z.ex.TLBMiss(u)
		}
	}

	z.costs.Accesses += uint64(len(vs))
	z.costs.IOs += ios
	z.costs.TLBMisses += uint64(len(miss))
	z.costs.DecodingMisses += decodes
	z.failureHits += fhits
}

// Costs implements Algorithm.
func (z *Decoupled) Costs() Costs { return z.costs }

// ResetCosts implements Algorithm.
func (z *Decoupled) ResetCosts() {
	z.costs = Costs{}
	z.ex.Reset()
	z.failureHits = 0
	z.tlb.ResetCounters()
}

// EnableExplain implements Explainer.
func (z *Decoupled) EnableExplain() {
	if z.ex == nil {
		z.ex = &explain.Counters{}
	}
}

// Explain implements Explainer.
func (z *Decoupled) Explain() *explain.Counters { return z.ex }

// ExplainGauges implements Gauger: RAM headroom against the derived δ,
// TLB reach at hmax granularity, and — when the allocator exposes bucket
// loads — the load histogram with the Theorem 2 bound evaluated at the
// target load λ = m/n, the bound-monitor comparison line for MaxLoad.
func (z *Decoupled) ExplainGauges() (explain.Gauges, bool) {
	g := occupancyGauges(z.scheme.Resident(), z.params.P)
	g.DeltaTarget = z.params.Delta
	g.CoveragePages = uint64(z.params.HMax)
	g.TLBReachPages = z.tlb.Reach(uint64(z.params.HMax))
	if la, ok := z.scheme.Allocator().(interface{ LoadHistogram() []int }); ok && z.params.NumBuckets > 0 {
		hist := la.LoadHistogram()
		var balls uint64
		maxLoad := 0
		for load, count := range hist {
			if count > 0 {
				maxLoad = load
				balls += uint64(load) * uint64(count)
			}
		}
		g.HasLoads = true
		g.Buckets = z.params.NumBuckets
		g.LoadHist = hist
		g.MaxLoad = maxLoad
		g.AvgLoad = float64(balls) / float64(z.params.NumBuckets)
		lambda := float64(z.params.MaxResident) / float64(z.params.NumBuckets)
		g.Theorem2Bound = ballsbins.Theorem2Bound(lambda, int(z.params.NumBuckets))
	}
	return g, true
}

// Name implements Algorithm.
func (z *Decoupled) Name() string {
	return fmt.Sprintf("decoupled(%s,hmax=%d,%s/%s)",
		z.cfg.Alloc, z.params.HMax, z.cfg.TLBPolicy, z.cfg.RAMPolicy)
}

// Params exposes the derived decoupling parameters.
func (z *Decoupled) Params() core.Params { return z.params }

// Scheme exposes the underlying decoupling scheme (read-only use).
func (z *Decoupled) Scheme() *core.Scheme { return z.scheme }

// FailureHits reports how many requests were serviced while their page was
// in the failure set F (each cost 1+ε extra).
func (z *Decoupled) FailureHits() uint64 { return z.failureHits }
