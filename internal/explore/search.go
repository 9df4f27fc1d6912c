package explore

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Objective scores an evaluated point; lower is better. Failed points
// must score +Inf so no strategy can climb onto an error.
type Objective func(Point) float64

// LatencyObjective minimizes simulated (or FSM) latency alone.
func LatencyObjective() Objective {
	return func(p Point) float64 {
		if p.Err != "" {
			return math.Inf(1)
		}
		return float64(p.Latency)
	}
}

// AreaObjective minimizes area alone.
func AreaObjective() Objective {
	return func(p Point) float64 {
		if p.Err != "" {
			return math.Inf(1)
		}
		return p.Area
	}
}

// WeightedObjective minimizes wLatency·latency + wArea·area — the
// scalarized trade-off. WeightedObjective(1000, 1) orders points by
// latency first with area as tiebreak at the design scales this
// repository sweeps.
func WeightedObjective(wLatency, wArea float64) Objective {
	return func(p Point) float64 {
		if p.Err != "" {
			return math.Inf(1)
		}
		return wLatency*float64(p.Latency) + wArea*p.Area
	}
}

// ObjectiveByName resolves the CLI objective names: "latency", "area",
// or "weighted" (latency-dominant with area tiebreak).
func ObjectiveByName(name string) (Objective, error) {
	switch name {
	case "latency":
		return LatencyObjective(), nil
	case "area":
		return AreaObjective(), nil
	case "weighted":
		return WeightedObjective(1000, 1), nil
	}
	return nil, fmt.Errorf("explore: unknown objective %q (want latency, area, or weighted)", name)
}

// Budget bounds a search run. Both limits are optional; a search with
// neither runs until its strategy converges — hill climbing after
// staleRounds consecutive restarts that discovered no new
// configuration, the genetic algorithm after staleRounds consecutive
// such generations — so unbudgeted searches terminate on finite spaces
// instead of cycling through revisits forever.
type Budget struct {
	// MaxEvaluations caps the number of distinct configurations the
	// search hands to the engine. Revisiting an already-scored candidate
	// is free — the search's own dedup table answers without touching
	// the budget — so the cap is comparable to a grid's config count.
	MaxEvaluations int
	// MaxDuration caps wall-clock time. It is checked between
	// evaluation batches (a neighborhood, a generation), so a search
	// may overshoot by at most one batch. Time-capped runs are still
	// seed-deterministic in everything but their stopping point.
	MaxDuration time.Duration
}

// Step is one strict improvement in a search trajectory.
type Step struct {
	// Evaluation is the 1-based count of engine evaluations spent when
	// the improvement was found.
	Evaluation int
	Score      float64
	Point      Point
}

// Result is a finished search run.
type Result struct {
	Strategy string
	Seed     int64
	// Evaluations is the number of distinct configurations evaluated —
	// the number a grid sweep of the same space should be compared
	// against.
	Evaluations int
	// Revisits counts candidate scorings answered by the search's own
	// dedup table (free; no engine call).
	Revisits int
	// Restarts (hill climbing) / Generations (genetic) count completed
	// outer iterations.
	Restarts    int
	Generations int
	// Best is the best-scoring point found. When every evaluation
	// failed, no candidate ever improves on the initial +Inf score:
	// BestScore stays +Inf and Best stays the zero Point — check
	// math.IsInf(BestScore, 1) before treating Best as a design.
	Best      Point
	BestScore float64
	// Trajectory is the strictly improving best-so-far sequence;
	// Trajectory[len-1] == {., BestScore, Best}.
	Trajectory []Step
	// Exhausted reports that the run stopped on its budget rather than
	// on strategy convergence.
	Exhausted bool
	// Canceled reports that the run was cut short by context
	// cancellation (SearchContext); the trajectory up to the cut is
	// still valid, and Exhausted is set too — a cancelled budget is a
	// spent budget.
	Canceled bool
}

// Strategy is one adaptive search algorithm over a Space. Searches are
// deterministic: the same (engine-visible state, space, objective,
// budget, seed) yields the same Result, regardless of how warm the
// engine's caches are. SearchContext additionally honors cancellation
// between evaluation batches — a cancelled run keeps everything scored
// so far; Search is SearchContext under context.Background().
type Strategy interface {
	Name() string
	Search(eng *Engine, sp Space, obj Objective, b Budget, seed int64) Result
	SearchContext(ctx context.Context, eng *Engine, sp Space, obj Objective, b Budget, seed int64) Result
}

// StrategyByName resolves the CLI strategy names: "hill" (steepest-
// ascent hill climbing with random restarts), "genetic", or "anneal"
// (Metropolis simulated annealing with reheats).
func StrategyByName(name string) (Strategy, error) {
	switch name {
	case "hill", "hill-climb", "hillclimb":
		return HillClimb{}, nil
	case "genetic", "ga":
		return Genetic{}, nil
	case "anneal", "sa", "simulated-annealing":
		return SimulatedAnnealing{}, nil
	}
	return nil, fmt.Errorf("explore: unknown strategy %q (want hill, genetic, or anneal)", name)
}

// SearchObserver receives live callbacks from a running search. All
// strategies route their evaluations through the shared searchRun, so
// one observer covers hill climbing, genetic, and annealing alike.
// Callbacks fire on the strategy's own goroutine between evaluation
// batches: they must be fast and must not call back into the search.
// Observation never changes the search itself — trajectories stay
// seed-deterministic with or without an observer attached.
type SearchObserver struct {
	// OnBatch fires after each evaluation batch with the cumulative
	// number of distinct configurations evaluated so far.
	OnBatch func(evaluations int)
	// OnImprovement fires for each strict improvement, as it is found.
	OnImprovement func(step Step)
	// OnRound fires after each completed outer round (hill-climb
	// restart, genetic generation, annealing epoch), 1-based.
	OnRound func(round int)
}

type searchObserverKey struct{}

// WithSearchObserver attaches an observer to a context; any strategy's
// SearchContext under that context reports to it.
func WithSearchObserver(ctx context.Context, o *SearchObserver) context.Context {
	return context.WithValue(ctx, searchObserverKey{}, o)
}

func searchObserverFrom(ctx context.Context) *SearchObserver {
	o, _ := ctx.Value(searchObserverKey{}).(*SearchObserver)
	return o
}

// searchRun is the budget-aware evaluator shared by the strategies: it
// lowers candidates to configs, dedups exact revisits, batches fresh
// configs through the engine's worker pool, and keeps the best-so-far
// trajectory. Strategies drive it single-threadedly; batch evaluation
// is where sweep parallelism comes from.
type searchRun struct {
	ctx      context.Context
	eng      *Engine
	sp       *Space
	obj      Objective
	budget   Budget
	deadline time.Time
	seen     map[string]float64
	observer *SearchObserver
	result   Result
}

func newSearchRun(ctx context.Context, eng *Engine, sp *Space, obj Objective, b Budget, name string, seed int64) *searchRun {
	r := &searchRun{
		ctx: ctx, eng: eng, sp: sp, obj: obj, budget: b,
		seen:     map[string]float64{},
		observer: searchObserverFrom(ctx),
		result:   Result{Strategy: name, Seed: seed, BestScore: math.Inf(1)},
	}
	if b.MaxDuration > 0 {
		r.deadline = time.Now().Add(b.MaxDuration)
	}
	return r
}

// round reports a completed outer round to the observer.
func (r *searchRun) round(n int) {
	if r.observer != nil && r.observer.OnRound != nil {
		r.observer.OnRound(n)
	}
}

// out reports whether the budget is spent or the context is done. The
// first evaluation is always allowed — unless the run was cancelled
// before it started — so every uncancelled run produces a scored Best.
func (r *searchRun) out() bool {
	if r.ctx.Err() != nil {
		r.result.Exhausted = true
		r.result.Canceled = true
		return true
	}
	if r.result.Evaluations == 0 {
		return false
	}
	if r.budget.MaxEvaluations > 0 && r.result.Evaluations >= r.budget.MaxEvaluations {
		r.result.Exhausted = true
		return true
	}
	if !r.deadline.IsZero() && !time.Now().Before(r.deadline) {
		r.result.Exhausted = true
		return true
	}
	return false
}

// scores evaluates a candidate batch, in order, spending budget only on
// configurations this search has not scored before. ok[i] reports
// whether cands[i] was scored; once the budget runs out mid-batch the
// remaining fresh candidates are left unscored (revisits are still
// answered — they are free).
func (r *searchRun) scores(cands []candidate) (scores []float64, ok []bool) {
	scores = make([]float64, len(cands))
	ok = make([]bool, len(cands))
	keys := make([]string, len(cands))
	cfgs := make([]Config, len(cands))

	// Partition into revisits and the fresh prefix the budget admits.
	var fresh []int
	for i, c := range cands {
		cfgs[i] = r.sp.config(c)
		keys[i] = cfgs[i].String()
		if s, dup := r.seen[keys[i]]; dup {
			scores[i], ok[i] = s, true
			r.result.Revisits++
			continue
		}
		// The first-evaluation-always-admitted guarantee lives in out():
		// a fresh run reaches here with an untouched budget.
		if r.budget.MaxEvaluations > 0 &&
			r.result.Evaluations+len(fresh) >= r.budget.MaxEvaluations {
			r.result.Exhausted = true
			continue
		}
		// Two copies of one fresh config in a single batch: score once.
		dupInBatch := false
		for _, j := range fresh {
			if keys[j] == keys[i] {
				dupInBatch = true
				break
			}
		}
		if dupInBatch {
			continue
		}
		fresh = append(fresh, i)
	}

	if len(fresh) > 0 {
		batch := make([]Config, len(fresh))
		for bi, i := range fresh {
			batch[bi] = cfgs[i]
		}
		pts := r.eng.SweepContext(r.ctx, batch)
		for bi, i := range fresh {
			pt := pts[bi]
			// A canceled point with our own context still alive was
			// poisoned by a DIFFERENT caller's cancellation through the
			// engine's single flight (the computing caller's context
			// governs a shared evaluation; the engine drops the entry so
			// waiters retry). Retry here — silently dropping the
			// candidate would make the search lose arms and turn
			// nondeterministic on a shared engine.
			for IsCanceled(pt) && r.ctx.Err() == nil {
				pt = r.eng.EvaluateContext(r.ctx, batch[bi])
			}
			if IsCanceled(pt) {
				// Our own cancellation: neither a score nor a spent
				// evaluation. It is recorded here because a strategy
				// that loses its start candidate stops without asking
				// out() again.
				r.result.Exhausted, r.result.Canceled = true, true
				continue
			}
			s := r.obj(pt)
			r.seen[keys[i]] = s
			scores[i], ok[i] = s, true
			r.result.Evaluations++
			if s < r.result.BestScore {
				r.result.BestScore = s
				r.result.Best = pt
				step := Step{Evaluation: r.result.Evaluations, Score: s, Point: pt}
				r.result.Trajectory = append(r.result.Trajectory, step)
				if r.observer != nil && r.observer.OnImprovement != nil {
					r.observer.OnImprovement(step)
				}
			}
		}
		if r.observer != nil && r.observer.OnBatch != nil {
			r.observer.OnBatch(r.result.Evaluations)
		}
		// Resolve the in-batch duplicates left unscored above.
		for i := range cands {
			if !ok[i] {
				if s, dup := r.seen[keys[i]]; dup {
					scores[i], ok[i] = s, true
					r.result.Revisits++
				}
			}
		}
	}
	return scores, ok
}

// score is the single-candidate form of scores.
func (r *searchRun) score(c candidate) (float64, bool) {
	s, ok := r.scores([]candidate{c})
	return s[0], ok[0]
}

// HillClimb is steepest-ascent hill climbing with random restarts: from
// a starting candidate (the identity ordering first — the paper's
// coordinated plan — then seeded random restarts), score the whole
// prefix-biased neighborhood, move to the best strict improvement, and
// restart from a fresh random candidate at each local optimum until the
// budget is spent.
type HillClimb struct {
	// Restarts caps random restarts after the initial descent
	// (0 = until the budget runs out or staleRounds consecutive
	// restarts discover nothing new).
	Restarts int
	// NeighborLimit caps the per-step neighborhood (0 = the full
	// neighborhood). Because neighbors are ordered cheapest- and
	// deepest-mutation-first, a small cap concentrates the search on
	// prefix-preserving moves.
	NeighborLimit int
}

func (h HillClimb) Name() string { return "hill-climb" }

// staleRounds is the convergence heuristic for unbudgeted searches:
// after this many consecutive outer rounds (restarts / generations)
// that evaluate no configuration the search has not seen before, the
// strategy declares the space mined out and stops.
const staleRounds = 5

func (h HillClimb) Search(eng *Engine, sp Space, obj Objective, b Budget, seed int64) Result {
	return h.SearchContext(context.Background(), eng, sp, obj, b, seed)
}

// SearchContext is Search under a context: cancellation stops the climb
// at the next evaluation-batch boundary (a neighborhood), keeping the
// trajectory found so far.
func (h HillClimb) SearchContext(ctx context.Context, eng *Engine, sp Space, obj Objective, b Budget, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	run := newSearchRun(ctx, eng, &sp, obj, b, h.Name(), seed)
	stale := 0
	for restart := 0; !run.out() && stale < staleRounds; restart++ {
		if h.Restarts > 0 && restart > h.Restarts {
			break
		}
		before := run.result.Evaluations
		cur := sp.identity()
		if restart > 0 {
			cur = sp.random(rng)
		}
		curScore, ok := run.score(cur)
		if !ok {
			break
		}
		for !run.out() {
			neigh := sp.neighbors(cur, h.NeighborLimit)
			scores, scored := run.scores(neigh)
			best, bestScore := -1, curScore
			for i := range neigh {
				if scored[i] && scores[i] < bestScore {
					best, bestScore = i, scores[i]
				}
			}
			if best < 0 {
				break // local optimum (or budget cut the whole batch)
			}
			cur, curScore = neigh[best], bestScore
		}
		run.result.Restarts = restart + 1
		run.round(restart + 1)
		if run.result.Evaluations == before {
			stale++
		} else {
			stale = 0
		}
	}
	return run.result
}
