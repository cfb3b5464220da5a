// The benchmark is its own module so the repo's `go build ./...` and
// `go test ./...` never see it; the import path keeps the monarch/
// prefix, which is what lets it import monarch/internal/... packages.
module monarch/bench

go 1.24

require monarch v0.0.0

replace monarch => ../
