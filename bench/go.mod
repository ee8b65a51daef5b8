module pipeleon/bench

go 1.22

require pipeleon v0.0.0

replace pipeleon => ../
