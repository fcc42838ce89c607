package fleet

import (
	"errors"
	"flag"
	"strconv"

	"robustscale/internal/obs"
)

// Flags is what BindFlags fills: a loop's Config and the two settings of
// the process around it.
type Flags struct {
	Config
	// Listen is the address of the health and observability surface
	// (empty disables it).
	Listen string
	// LabelLimit caps each metric family's label cardinality (<= 0 =
	// unlimited).
	LabelLimit int
}

// BindFlags defines on fs the flags fleetsim and autoscaled share, each
// defaulting to def's value, and returns what parsing fills. Sizes that
// cannot run (a non-positive -state-retain or -checkpoint-interval) and
// a quantile level outside (0, 1) fail fs.Parse, so the command exits 2
// with its usage.
func BindFlags(fs *flag.FlagSet, def Config) *Flags {
	f := &Flags{Config: def}
	c := &f.Config
	fs.Int64Var(&c.Seed, "seed", def.Seed, "master seed: the workload trace and every model and fault seed derive from it")
	fs.Float64Var(&c.Theta, "theta", def.Theta, "per-node workload threshold")
	fs.IntVar(&c.Horizon, "horizon", def.Horizon, "planning horizon in steps")
	quantileVar(fs, &c.Tau, "tau", def.Tau, "quantile `level` in (0, 1) (robust) or optimistic level, at most -tau2 (adaptive)")
	quantileVar(fs, &c.Tau2, "tau2", def.Tau2, "conservative quantile `level` in (0, 1) for adaptive")
	fs.StringVar(&c.Strategy, "strategy", def.Strategy, "robust | adaptive | reactive-max (autoscaled also takes reactive-avg)")
	fs.BoolVar(&c.Guard, "guard", def.Guard, "wrap every strategy in the resilience guard (history repair, fan repair, fallback ladder)")
	fs.StringVar(&f.Listen, "listen", "", "address for the health and observability surface, e.g. :8080 (empty disables)")
	fs.Float64Var(&c.SLOTarget, "slo-target", def.SLOTarget, "violation-rate SLO driving the error-budget tracker and burn-rate alerts (0 disables the SLO plane; never changes decisions)")
	fs.IntVar(&c.SLOWindow, "slo-window", def.SLOWindow, "rolling error-budget window in SLO ticks (fleetsim: rounds; autoscaled: replay steps)")
	fs.IntVar(&f.LabelLimit, "label-limit", obs.DefaultLabelLimit, `per-metric label cardinality cap; excess label values (e.g. tenant ids) collapse into the "other" series (<= 0 = unlimited)`)
	fs.StringVar(&c.Chaos, "chaos", def.Chaos, "fault-injection preset: none | forecast | telemetry | apply | node-kill | all | smoke, and for fleetsim zone-outage | pool-collapse | admission-reject | fleet | wake | wake-storm (empty disables)")
	fs.Int64Var(&c.ChaosSeed, "chaos-seed", def.ChaosSeed, "fault-schedule seed (0 = -seed)")
	fs.BoolVar(&c.Serverless, "serverless", def.Serverless, "scale to zero: idle tenants park at zero nodes and wake from it with a latency and cost penalty")
	fs.StringVar(&c.StateDir, "state-dir", def.StateDir, "checkpoint directory for durable warm restarts; each checkpoint is one segment file in it (empty disables durability)")
	PositiveIntVar(fs, &c.Retain, "state-retain", def.Retain, "keep the `N` newest checkpoint segments; a tenant whose newest record is damaged resumes from the next-older one")
	PositiveIntVar(fs, &c.CheckpointInterval, "checkpoint-interval", def.CheckpointInterval, "checkpoint every `N` planning rounds (with -state-dir)")
	return f
}

// PositiveIntVar defines an int flag that refuses values below one when it
// is parsed, instead of a loop quietly replacing them later.
func PositiveIntVar(fs *flag.FlagSet, p *int, name string, value int, usage string) {
	*p = value
	fs.Var((*positiveInt)(p), name, usage)
}

type positiveInt int

func (p *positiveInt) String() string { return strconv.Itoa(int(*p)) }

func (p *positiveInt) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err == nil && n < 1 {
		err = errors.New("must be positive")
	}
	if err == nil {
		*p = positiveInt(n)
	}
	return err
}

// quantileVar defines a float flag that refuses a level outside (0, 1),
// NaN included, when it is parsed.
func quantileVar(fs *flag.FlagSet, p *float64, name string, value float64, usage string) {
	*p = value
	fs.Var((*quantile)(p), name, usage)
}

type quantile float64

func (q *quantile) String() string { return strconv.FormatFloat(float64(*q), 'g', -1, 64) }

func (q *quantile) Set(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && !(v > 0 && v < 1) {
		err = errors.New("must be inside (0, 1)")
	}
	if err == nil {
		*q = quantile(v)
	}
	return err
}
