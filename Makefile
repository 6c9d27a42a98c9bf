# Convenience wrappers around the CMake build. The canonical workflow is
#   cmake -B build -S . && cmake --build build -j && ctest --test-dir build
# these targets just save typing.

BUILD ?= build

.PHONY: all build test bench-report clean

all: build

build:
	cmake -B $(BUILD) -S .
	cmake --build $(BUILD) -j

test: build
	ctest --test-dir $(BUILD) --output-on-failure

# Runs the event-core microbenchmarks and the relay fan-out A/B
# (Release recommended), writing the perf-trajectory reports to
# $(BUILD)/BENCH_PR2.json and $(BUILD)/BENCH_PR3.json; compare against the
# checked-in BENCH_PR2.json / BENCH_PR3.json medians at the repo root.
bench-report: build
	cmake --build $(BUILD) --target bench-report

clean:
	rm -rf $(BUILD)
