module factorlog/bench

go 1.22

require factorlog v0.0.0

replace factorlog => ../
