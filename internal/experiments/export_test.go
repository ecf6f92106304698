package experiments

// Hooks for the external test package, which builds environments
// through internal/scenario (an internal test could not import it).
var (
	SouthernSites = southernSites
	WithoutGSO    = withoutGSO
	WithoutLoad   = withoutLoad
	Deterministic = deterministic
)

// Sibling exposes the §8 sibling construction.
func (e *Env) Sibling(edit func(*Config)) (*Env, error) { return e.sibling(edit) }

// BuiltFrom returns the Config e was built from.
func (e *Env) BuiltFrom() Config { return e.cfg }
