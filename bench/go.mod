module instantad/bench

go 1.22

require instantad v0.0.0

replace instantad => ../
