module desis/benchmark

go 1.22

require desis v0.0.0

replace desis => ../
