# Golden single-domain outputs: the anl-nersc transfer log and metrics
# snapshot, and the faulty-wan trace with server crashes (abort, park,
# re-register and resume), must keep the sha256 digests checked in at
# tests/golden/scenarios.sha256. The federation has its own golden test;
# this one pins the single-domain engine, server and network stack.
# Re-baseline only with a stated reason.
set(anl ${WORKDIR}/scenario_golden_anl-nersc_days14_seed1)
execute_process(
  COMMAND ${SIMULATE} --scenario anl-nersc --days 14 --seed 1
          --log ${anl}.log.csv --metrics-out ${anl}.metrics.prom
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "anl-nersc golden run failed: ${rc}")
endif()
set(fw ${WORKDIR}/scenario_golden_faulty-wan_seed3_mtbf3600)
execute_process(
  COMMAND ${SIMULATE} --scenario faulty-wan --seed 3 --server-mtbf 3600
          --trace-out ${fw}.trace.jsonl
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "faulty-wan golden run failed: ${rc}")
endif()

file(STRINGS ${GOLDEN_DIR}/scenarios.sha256 lines)
list(LENGTH lines count)
if(NOT count EQUAL 3)
  message(FATAL_ERROR "expected 3 golden digests, found ${count}")
endif()
foreach(line IN LISTS lines)
  string(REGEX MATCH "^([0-9a-f]+)  (.+)$" _ "${line}")
  set(want ${CMAKE_MATCH_1})
  set(out ${WORKDIR}/scenario_golden_${CMAKE_MATCH_2})
  file(SHA256 ${out} got)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "scenario output moved: ${CMAKE_MATCH_2}\n"
                        "  golden: ${want}\n  got:    ${got}\n  file:   ${out}")
  endif()
endforeach()
