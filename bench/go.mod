module sacsearch/bench

go 1.22

require sacsearch v0.0.0

replace sacsearch => ../
