# Header self-containment suite.
#
# Every public header under src/ must compile as a standalone translation
# unit — including it first (or alone) must never depend on what the
# includer happened to pull in earlier. This function proves it with the
# real compiler: one ctest per header running `-fsyntax-only` on the bare
# file.
#
# GNU/Clang only — the `-x c++ -fsyntax-only` spelling is theirs; other
# compilers simply register no tests.
function(ga_add_header_self_containment_tests header_root)
  if(NOT CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    message(STATUS "ga: header self-containment tests skipped "
                   "(compiler ${CMAKE_CXX_COMPILER_ID})")
    return()
  endif()

  file(GLOB_RECURSE ga_headers CONFIGURE_DEPENDS ${header_root}/*.hpp)
  list(SORT ga_headers)
  foreach(header IN LISTS ga_headers)
    file(RELATIVE_PATH rel ${header_root} ${header})
    string(REPLACE "/" "_" test_suffix ${rel})
    string(REPLACE ".hpp" "" test_suffix ${test_suffix})
    add_test(NAME header_self_contained_${test_suffix}
      COMMAND ${CMAKE_CXX_COMPILER} -std=c++20 -fsyntax-only
              -I${header_root} -x c++ ${header})
    set_tests_properties(header_self_contained_${test_suffix}
      PROPERTIES LABELS "lint" TIMEOUT 60)
  endforeach()

  list(LENGTH ga_headers n)
  message(STATUS "ga: registered ${n} header self-containment tests")
endfunction()
