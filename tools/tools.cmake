# Command-line tools (included from the top-level CMakeLists; binaries land
# in ${CMAKE_BINARY_DIR}/tools).

function(fgad_tool target source output)
  add_executable(${target} ${CMAKE_SOURCE_DIR}/tools/${source})
  target_link_libraries(${target} PRIVATE fgad)
  set_target_properties(${target} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/tools
    OUTPUT_NAME ${output})
endfunction()

fgad_tool(fgad_server_tool fgad_server.cpp fgad_server)
fgad_tool(fgad_cli fgad_cli.cpp fgad)
fgad_tool(bench_compare bench_compare.cpp bench_compare)
fgad_tool(fgad_mon fgad_mon.cpp fgad_mon)
fgad_tool(fgad_repl_smoke fgad_repl_smoke.cpp fgad_repl_smoke)
