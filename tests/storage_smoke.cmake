# The on-disk storage gate, end to end through the grca CLI. A sealed store
# and a streaming write-ahead log must both diagnose byte-identically to
# re-extraction from the raw corpus, across a process boundary and through
# compaction, a WAL torn inside its header must stay recoverable, and a
# corrupted segment must fail verification.
#   cmake -DGRCA=path/to/grca -DPYTHON=path/to/python3 -DWORK=scratch/dir
#         -P storage_smoke.cmake
# WORK is emptied first and left behind for inspection.
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs `grca ARGN` in WORK and stops the gate unless it exits 0; the
# standard output, minus the wall-clock "diagnosis time" line, goes to
# OUT_VAR.
function(run_grca out_var)
  execute_process(COMMAND "${GRCA}" ${ARGN} WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "grca ${ARGN}: exit status ${rc}\n${out}\n${err}")
  endif()
  string(REGEX REPLACE "[^\n]*diagnosis time[^\n]*\n?" "" out "${out}")
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Stops the gate unless diagnosis output TEXT equals the fresh run's; both
# are written to WORK as <name>.txt for a diff.
function(expect_fresh name text)
  file(WRITE "${WORK}/${name}.txt" "${text}")
  if(NOT text STREQUAL fresh)
    message(FATAL_ERROR "${name}: diagnosis differs from re-extraction; "
                        "diff ${WORK}/fresh.txt ${WORK}/${name}.txt")
  endif()
endfunction()

# Simulate and persist the event store.
run_grca(out simulate --study bgp --out store-data --days 3 --symptoms 100
         --store-out store-log)
run_grca(out store verify --dir store-log --deep)
run_grca(out store inspect --dir store-log)

# Reopen and diagnose byte-identically; the span log converts to a valid
# Chrome trace.
run_grca(fresh diagnose --study bgp --data store-data --span-log spans.jsonl)
file(WRITE "${WORK}/fresh.txt" "${fresh}")
run_grca(out diagnose --study bgp --data store-data --store store-log)
expect_fresh(reopened "${out}")
run_grca(out spans --in spans.jsonl --out spans.trace.json)
file(READ "${WORK}/spans.trace.json" trace)
string(JSON kind ERROR_VARIABLE json_error TYPE "${trace}")
if(json_error)
  message(FATAL_ERROR "spans.trace.json is not valid JSON: ${json_error}")
endif()

# Streaming write-ahead persistence survives restart and compaction.
run_grca(out replay --study bgp --data store-data --rate max
         --persist stream-log --persist-seal-every 3600)
run_grca(out store verify --dir stream-log)
run_grca(out diagnose --study bgp --data store-data --store stream-log)
expect_fresh(streamed "${out}")

# A WAL torn inside its 24-byte header (a crash while it was being
# rewritten) is a recoverable torn tail for every store command. The
# replay's last seal left the WAL frameless, so nothing is lost.
file(COPY "${WORK}/stream-log/" DESTINATION "${WORK}/torn-log")
execute_process(
  COMMAND "${PYTHON}" -c
          "import sys; open(sys.argv[1], 'r+b').truncate(10)"
          "${WORK}/torn-log/wal.grseg"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not truncate ${WORK}/torn-log/wal.grseg")
endif()
run_grca(out store inspect --dir torn-log)
if(NOT out MATCHES "wal.grseg: [^\n]*torn tail 10 bytes")
  message(FATAL_ERROR "store inspect did not report the torn WAL:\n${out}")
endif()
run_grca(out store verify --dir torn-log)
run_grca(out diagnose --study bgp --data store-data --store torn-log)
expect_fresh(torn "${out}")
run_grca(out store compact --dir torn-log)

run_grca(out store compact --dir stream-log)
run_grca(out store verify --dir stream-log --deep)
run_grca(out diagnose --study bgp --data store-data --store stream-log)
expect_fresh(compacted "${out}")

# A corrupted segment fails verification: flip one bit mid-file.
file(GLOB segments "${WORK}/store-log/seg-*.grseg")
list(SORT segments)
list(GET segments 0 segment)
execute_process(
  COMMAND "${PYTHON}" -c
          "import sys; p = sys.argv[1]; d = bytearray(open(p, 'rb').read()); d[len(d) // 2] ^= 0x10; open(p, 'wb').write(bytes(d))"
          "${segment}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not corrupt ${segment}")
endif()
execute_process(COMMAND "${GRCA}" store verify --dir store-log
                WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "store verify accepted a corrupt segment ${segment}")
endif()
