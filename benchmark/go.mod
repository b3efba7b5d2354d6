module cqp/benchmark

go 1.22

require cqp v0.0.0

replace cqp => ../
