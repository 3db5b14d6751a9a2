# Trains the same model with one and with four host threads and requires
# byte-identical snapshots (weights and solver state): results must not
# depend on how the host pool schedules work functors.
#
#   cmake -DTRAIN=<glp4nn_train> -DOUT=<dir> -P thread_count_determinism.cmake
foreach(threads 1 4)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env GLP_NUM_THREADS=${threads}
            ${TRAIN} --model cifar10 --iters 3 --display 0
            --snapshot ${OUT}/threads${threads}.glpw
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "training with GLP_NUM_THREADS=${threads} failed (${rc})")
  endif()
endforeach()
foreach(ext glpw glpw.state)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT}/threads1.${ext} ${OUT}/threads4.${ext}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "threads1.${ext} and threads4.${ext} differ")
  endif()
endforeach()
