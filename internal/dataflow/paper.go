package dataflow

// AdQuery selects the reporting server's continuous query (Figure 6).
// adtrack.ReportModule writes it as Bloom rules; bloom.Analyze derives the
// annotation of Report's request→response path from them.
type AdQuery string

// The four reporting-server queries of Figure 6.
const (
	THRESH   AdQuery = "THRESH"
	POOR     AdQuery = "POOR"
	WINDOW   AdQuery = "WINDOW"
	CAMPAIGN AdQuery = "CAMPAIGN"
)
