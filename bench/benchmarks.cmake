# Benchmark targets (included from the top-level CMakeLists so that
# ${CMAKE_BINARY_DIR}/bench contains ONLY runnable binaries — the canonical
# way to run every experiment is: for b in build/bench/*; do $b; done).

function(fgad_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE fgad)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

fgad_bench(table1_complexity)
fgad_bench(table2_deletion_overhead)
fgad_bench(fig5_comm_overhead)
fgad_bench(fig6_comp_overhead)
fgad_bench(table3_wholefile)
fgad_bench(ablation_hash)
fgad_bench(ablation_transport)
fgad_bench(net_roundtrip)
fgad_bench(ablation_two_level)

fgad_bench(micro_core)
target_link_libraries(micro_core PRIVATE benchmark::benchmark)
fgad_bench(ablation_integrity)
fgad_bench(wal_overhead)
fgad_bench(replication_overhead)
