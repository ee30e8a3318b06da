module roboads/bench

go 1.22

require roboads v0.0.0

replace roboads => ../
