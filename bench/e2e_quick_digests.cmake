# Pins the archive digest of every `e2e --quick` workload: run as
#
#   cmake -DBENCH_JSON=<out-dir>/BENCH_e2e.json -P e2e_quick_digests.cmake
#
# after the e2e_quick test wrote that file. A digest hashes every document
# a workload archived, so a change that alters what reaches the archive
# (report content, report count, document order) fails here even when
# each unit test still passes. Changing a digest below needs a declared
# reason in CHANGES.md: which workload's documents changed, and why that
# is intended.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

set(expected
  fig9 c5fa287ccd2a186e
  fabric16 9636bf743af1035b
  mice_archive 36aa8689c8ec326f
  engines_quic 07fe87f05e1ff366)

if(NOT EXISTS "${BENCH_JSON}")
  message(FATAL_ERROR "e2e_quick_digests: no ${BENCH_JSON} (run e2e_quick first)")
endif()
file(READ "${BENCH_JSON}" bench)

set(failed FALSE)
list(LENGTH expected n)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET expected ${i} workload)
  list(GET expected ${j} digest)
  string(JSON actual ERROR_VARIABLE missing
         GET "${bench}" workloads ${workload} digest)
  if(missing)
    message(SEND_ERROR "${workload}: no digest in ${BENCH_JSON}")
    set(failed TRUE)
  elseif(NOT actual STREQUAL digest)
    message(SEND_ERROR "${workload}: digest ${actual}, expected ${digest}")
    set(failed TRUE)
  else()
    message(STATUS "${workload}: ${actual}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "e2e_quick_digests: archive digests changed")
endif()
