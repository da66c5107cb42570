module groupcast/internal/bench

go 1.22

require groupcast v0.0.0

replace groupcast => ../..
