package obs

// ProbeSeries documents one probe series (or end-of-run counter) an
// engine emits when a recorder is attached. Names containing <class>
// or <node> are families: the placeholder is replaced by the class or
// node display name at runtime.
type ProbeSeries struct {
	Engine string // owning package (fokkerplanck, sde, meanfield, netmf, des)
	Name   string // series name as it appears in Event.Name
	Unit   string
	Desc   string
}

// Catalog lists every probe series the engines emit. It is the single
// source of truth the EXPERIMENTS.md probe table is checked against
// (TestProbeCatalogDocumented in internal/experiments), so adding a
// probe to an engine means adding it here and to the doc table.
func Catalog() []ProbeSeries {
	out := []ProbeSeries{
		{"fokkerplanck", "fp.mass", "1", "total density mass ∫f dq dv"},
		{"fokkerplanck", "fp.meanq", "packets", "mass-weighted mean queue E[Q]"},
		{"fokkerplanck", "fp.clipped", "1", "cumulative mass removed by negativity clipping"},
		{"fokkerplanck", "fp.outflow", "1", "cumulative mass lost through the q = QMax boundary"},
		{"fokkerplanck", "fp.cfl", "1", "Courant number of the last step"},
		{"sde", "sde.meanq", "packets", "ensemble mean queue length"},
		{"sde", "sde.meanlam", "packets/s", "ensemble mean sending rate"},
		{"sde", "sde.varq", "packets²", "ensemble queue-length variance"},
		{"meanfield", "mfp.queue", "packets", "particle-backend fluid queue length"},
		{"meanfield", "mfp.lambda", "packets/s", "particle-backend aggregate arrival rate"},
		{"des", "des.q", "packets", "packet queue length (packets in system)"},
	}
	// The kinetic engine emits one probe scheme under two scopes:
	// "mf" for meanfield.Density (its single node is "bottleneck")
	// and "netmf" for the networked scenarios.
	for _, k := range []struct{ engine, scope string }{{"meanfield", "mf"}, {"netmf", "netmf"}} {
		for _, p := range kineticProbes {
			out = append(out, ProbeSeries{k.engine, k.scope + "." + p.Name, p.Unit, p.Desc})
		}
	}
	return out
}

// kineticProbes are the kinetic engine's series, named without their
// scope prefix.
var kineticProbes = []ProbeSeries{
	{"", "q", "packets", "total fluid queue Σ_j Q_j; gates each snapshot"},
	{"", "<node>.q", "packets", "per-node fluid queue length Q_j"},
	{"", "clipped", "1", "cumulative clipped density mass, summed over classes"},
	{"", "<class>.lambda", "packets/s", "class offered rate Λ_k = w_k N_k ⟨λ⟩_k"},
	{"", "<class>.mean", "packets/s", "class mean per-source rate ⟨λ⟩_k"},
	{"", "<class>.var", "(packets/s)²", "class per-source rate variance"},
	{"", "<class>.pop", "sources", "open-class live population N_k·LiveMass_k"},
	{"", "<class>.born", "sources", "open-class cumulative sessions born N_k·born_k"},
	{"", "<class>.died", "sources", "open-class cumulative sessions died N_k·died_k"},
}
