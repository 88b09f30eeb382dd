module pccheck/bench

go 1.22

require pccheck v0.0.0

replace pccheck => ../
