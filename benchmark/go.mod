module cadmc/benchmark

go 1.22

require cadmc v0.0.0

replace cadmc => ../
