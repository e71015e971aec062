module rdbsc/bench

go 1.22

require rdbsc v0.0.0

replace rdbsc => ../
