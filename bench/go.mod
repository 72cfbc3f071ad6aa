module proxdisc/bench

go 1.24

require proxdisc v0.0.0

replace proxdisc => ../
