module sommelier/bench

go 1.24

require sommelier v0.0.0

replace sommelier => ../
