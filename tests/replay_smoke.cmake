# The replay gate, end to end through the grca CLI: a max-rate replay of the
# default BGP scenario must account for every record (conservation), give
# every ground-truth symptom a streaming diagnosis that matches the batch
# pipeline's verdict, and sustain at least 1M records/min; `grca replay`
# exits nonzero otherwise. Its JSON report must parse.
#   cmake -DGRCA=path/to/grca -DWORK=scratch/dir -P replay_smoke.cmake
# WORK is emptied first and left behind for inspection.
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

execute_process(
  COMMAND "${GRCA}" replay --study bgp --rate max --ingest-threads 4
          --min-rate 1000000 --report-out BENCH_replay_cli.json
  WORKING_DIRECTORY "${WORK}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(WRITE "${WORK}/replay.txt" "${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "grca replay: exit status ${rc}\n${out}\n${err}")
endif()

file(READ "${WORK}/BENCH_replay_cli.json" report)
string(JSON kind ERROR_VARIABLE json_error TYPE "${report}")
if(json_error)
  message(FATAL_ERROR "BENCH_replay_cli.json is not valid JSON: ${json_error}")
endif()
