package traffic

// ForEachArrival exposes the skip-sampling decoder to the external
// differential test in sharded_diff_test.go.
var ForEachArrival = forEachArrival
