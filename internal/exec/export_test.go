package exec

// Exported for the workload parity tests of package exec_test.
var (
	WithOwnedRows = withOwnedRows
	RowBits       = rowBits
)
