# Golden federation digests: the 21-site / 300-user federation must keep
# producing the checked-in digests (tests/golden/) at --shards 1 and 4.
# The shard-determinism test only compares lane counts with each other,
# so a change that shifts every run the same way would pass it; this one
# pins the behavior itself. Re-baseline only with a stated reason.
foreach(seed 2 19)
  set(golden ${GOLDEN_DIR}/federation_sites21_users300_seed${seed}.digest)
  foreach(shards 1 4)
    set(out ${WORKDIR}/fed_golden_s${seed}_shards${shards}.digest)
    execute_process(
      COMMAND ${SIMULATE} --scenario federation --seed ${seed}
              --sites 21 --users 300 --shards ${shards} --digest-out ${out}
      RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "federation (seed ${seed}, shards ${shards}) failed: ${rc}")
    endif()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files ${golden} ${out}
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      file(READ ${golden} want)
      file(READ ${out} got)
      message(FATAL_ERROR "federation digest moved (seed ${seed}, shards ${shards}):\n"
                          "  golden: ${want}  got:    ${got}")
    endif()
  endforeach()
endforeach()
