module whisper/benchmarks

go 1.22

require whisper v0.0.0

replace whisper => ../
