module ityr/benchmark

go 1.22

require ityr v0.0.0

replace ityr => ../
