module desyncpfair/bench

go 1.22

require desyncpfair v0.0.0

replace desyncpfair => ../
