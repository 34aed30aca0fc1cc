module tusim/benchmark

go 1.22

require tusim v0.0.0

replace tusim => ../
