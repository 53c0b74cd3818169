module gridproxy/bench

go 1.22

require gridproxy v0.0.0

replace gridproxy => ../
