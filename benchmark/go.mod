module snap/benchmark

go 1.22

require snap v0.0.0

replace snap => ../
