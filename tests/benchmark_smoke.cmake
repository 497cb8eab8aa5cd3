# The RCAEval-style scorecard gate, end to end through the grca CLI: the
# committed real topologies (Abilene + Geant + Germany50) x all five
# fault-scenario classes, run with --deterministic at one and four
# diagnosis threads. Both runs must write byte-identical scorecards and
# gate files, and tools/bench_diff.py fails the gate if any cell's
# precision/recall/F1 drops more than its tolerance below the committed
# bench/baselines/BENCH_benchmark.json.
#   cmake -DGRCA=path/to/grca -DPYTHON=path/to/python3 -DSOURCE=path/to/repo
#         -DWORK=scratch/dir -P benchmark_smoke.cmake
# WORK is emptied first and left behind for inspection.
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs ARGN in WORK and stops the gate unless it exits 0.
function(run)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN}: exit status ${rc}\n${out}")
  endif()
endfunction()

# Stops the gate unless files A and B (relative to WORK) are byte-identical.
function(expect_same a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

set(scorecard "${GRCA}" benchmark --deterministic
    --topo-dir "${SOURCE}/bench/topologies")
run(${scorecard} --threads 1 --out BENCH_scorecard_t1.json
    --gate-out BENCH_benchmark_t1.json)
run(${scorecard} --threads 4 --out BENCH_scorecard.json
    --gate-out BENCH_benchmark.json)
expect_same(BENCH_scorecard_t1.json BENCH_scorecard.json)
expect_same(BENCH_benchmark_t1.json BENCH_benchmark.json)

# Diff the gate values against the committed baseline.
run("${PYTHON}" "${SOURCE}/tools/bench_diff.py"
    --baseline-dir "${SOURCE}/bench/baselines"
    --out BENCH_benchmark_merged.json BENCH_benchmark.json)
