module allnn/benchmark

go 1.22

require allnn v0.0.0

replace allnn => ../
