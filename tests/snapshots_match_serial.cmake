# Trains CIFAR10 (batch 100, so up to 4 samples share a gradient slot)
# in four configurations and requires snapshots (weights and solver
# state) byte-identical to the serial baseline's: results must depend on
# neither the dispatcher, the pool size (the analyzer's choice, and 10,
# which does not divide 32) nor how the host pool schedules work functors.
#
#   cmake -DTRAIN=<glp4nn_train> -DOUT=<dir> -P snapshots_match_serial.cmake
set(configs "serial 1" "glp4nn 1" "glp4nn 4" "fixed:10 4")
foreach(config IN LISTS configs)
  separate_arguments(config)
  list(GET config 0 mode)
  list(GET config 1 threads)
  string(REPLACE ":" "" tag "${mode}_threads${threads}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env GLP_NUM_THREADS=${threads}
            ${TRAIN} --model cifar10 --mode ${mode} --iters 3 --display 0
            --snapshot ${OUT}/${tag}.glpw
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "training --mode ${mode} with GLP_NUM_THREADS=${threads} failed (${rc})")
  endif()
  list(APPEND tags ${tag})
endforeach()
list(POP_FRONT tags reference)
foreach(tag IN LISTS tags)
  foreach(ext glpw glpw.state)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${OUT}/${reference}.${ext} ${OUT}/${tag}.${ext}
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${reference}.${ext} and ${tag}.${ext} differ")
    endif()
  endforeach()
endforeach()
