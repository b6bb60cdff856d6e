module discfs/benchmark

go 1.24

require discfs v0.0.0

replace discfs => ../
