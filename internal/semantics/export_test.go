package semantics

// The random program, database and query generators of
// query_diff_test.go and the answer naming of query_test.go, for the
// tests of package semantics_test, which reach the query path through
// core.
var (
	RandQueryProgram = randQueryProgram
	RandQueryDB      = randQueryDB
	RandQuery        = randQuery
	NameTuples       = nameTuples
)
