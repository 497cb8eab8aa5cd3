# The closed rule-learning loop's regression gate, end to end through the
# grca CLI. The innet-loss-increase -> link-loss rule is ablated from the
# library and `grca learn` must re-learn it from the gray-failure cell on
# the mini topology: the ablated edge is re-accepted, the held-out F1 curve
# is monotone, the final F1 lands within 2% of the un-ablated reference,
# the deterministic report is byte-identical across reruns and to the
# committed golden fixture, and tools/bench_diff.py passes the flat metric
# map against bench/baselines/BENCH_learn.json.
#   cmake -DGRCA=path/to/grca -DPYTHON=path/to/python3 -DSOURCE=path/to/repo
#         -DWORK=scratch/dir -P learn_smoke.cmake
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

# Reads WORK/NAME into OUT_VAR; stops unless it parses as JSON.
function(read_json out_var name)
  file(READ "${WORK}/${name}" text)
  string(JSON kind ERROR_VARIABLE json_error TYPE "${text}")
  if(json_error)
    message(FATAL_ERROR "${name} is not valid JSON: ${json_error}")
  endif()
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

# Stops the gate unless files A and B (relative to WORK) are byte-identical.
function(expect_same a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

set(cell --topology "${SOURCE}/tests/data/mini.graph" --scenario gray-failure
    --days 3 --symptoms 120 --seed 29 --deterministic)
set(ablate --ablate "innet-loss-increase->link-loss")

# Un-ablated reference score.
run("${GRCA}" learn ${cell} --max-iterations 0
    --gate-out BENCH_learn_reference.json)

# Ablate link-loss and re-learn.
run("${GRCA}" learn ${cell} ${ablate} --out BENCH_learn_report.json
    --gate-out BENCH_learn.json --rules-out BENCH_learned_rules.dsl
    --metrics-out BENCH_learn_metrics.json)

# A rerun is byte-identical and matches the committed golden.
run("${GRCA}" learn ${cell} ${ablate} --out BENCH_learn_rerun.json)
expect_same(BENCH_learn_report.json BENCH_learn_rerun.json)
expect_same(BENCH_learn_report.json
            "${SOURCE}/tests/data/golden_learn_report.json")

# The learned rules carry their provenance.
file(READ "${WORK}/BENCH_learned_rules.dsl" rules)
string(FIND "${rules}" "origin \"learned:" at)
if(at EQUAL -1)
  message(FATAL_ERROR "BENCH_learned_rules.dsl has no learned rule origin")
endif()

# Learn counters are surfaced in the metrics registry.
read_json(metrics BENCH_learn_metrics.json)
foreach(name grca_learn_iterations_total grca_learn_candidates_proposed_total
        grca_learn_candidates_accepted_total
        grca_learn_candidates_rejected_total)
  string(FIND "${metrics}" "${name}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${name} missing from the metrics dump")
  endif()
endforeach()

# Gate on re-learning, a monotone curve and F1 parity.
read_json(ref BENCH_learn_reference.json)
read_json(gate BENCH_learn.json)
read_json(report BENCH_learn_report.json)
string(JSON relearned GET "${gate}" learn.relearned_ablated)
if(NOT relearned STREQUAL "ON")
  message(FATAL_ERROR "the ablated rule was not re-learned")
endif()
string(JSON monotone GET "${gate}" learn.curve_monotone)
if(NOT monotone STREQUAL "ON")
  message(FATAL_ERROR "the held-out F1 curve decreased")
endif()
string(JSON previous GET "${report}" baseline holdout_f1)
set(curve "${previous}")
string(JSON iterations LENGTH "${report}" iterations)
if(iterations GREATER 0)
  math(EXPR last "${iterations} - 1")
  foreach(i RANGE ${last})
    string(JSON f1 GET "${report}" iterations ${i} holdout_f1)
    list(APPEND curve "${f1}")
    if(f1 LESS previous)
      message(FATAL_ERROR "non-monotone held-out F1 curve ${curve}")
    endif()
    set(previous "${f1}")
  endforeach()
endif()
string(JSON ref_f1 GET "${ref}" learn.final_f1)
string(JSON final_f1 GET "${gate}" learn.final_f1)
execute_process(COMMAND "${PYTHON}" -c
                        "import sys; print(0.98 * float(sys.argv[1]))"
                        "${ref_f1}"
                OUTPUT_VARIABLE floor OUTPUT_STRIP_TRAILING_WHITESPACE
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR final_f1 LESS floor)
  message(FATAL_ERROR
          "re-learned F1 ${final_f1} < 98% of the reference ${ref_f1}")
endif()
message(STATUS "re-learned: F1 ${final_f1} vs reference ${ref_f1}, "
               "curve ${curve}")

# Diff the flat metric map against the committed baseline.
run("${PYTHON}" "${SOURCE}/tools/bench_diff.py"
    --baseline-dir "${SOURCE}/bench/baselines" --out BENCH_learn_merged.json
    BENCH_learn.json)
