module match/bench

go 1.21

require match v0.0.0

replace match => ../
