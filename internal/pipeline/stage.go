package pipeline

// ChosenOnly keeps records with an identified chosen satellite — the
// rows the §5 analyses and the §6 model consume, matching
// core.CampaignResult.Observations semantics.
func ChosenOnly() Stage {
	return func(rec *Record) bool { return rec.ChosenIdx >= 0 }
}
