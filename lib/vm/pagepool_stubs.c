/* Bulk staging copies for Sds_vm.Pagepool.blit_from_bytes / blit_to_bytes.
 *
 * Declared [@@noalloc] on the OCaml side: the stubs touch no OCaml heap
 * block beyond reading the two buffers' addresses, allocate nothing and
 * cannot raise, so no GC can move the Bytes.t mid-copy.  Every range and
 * liveness check runs in OCaml before the call; these only move bytes.
 * A Bytes.t and a pool page never overlap, so memcpy (not memmove). */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

CAMLprim value sds_pagepool_blit_bytes_to_ba(value src, value src_off, value dst, value dst_off,
                                             value len)
{
  memcpy((char *)Caml_ba_data_val(dst) + Long_val(dst_off),
         Bytes_val(src) + Long_val(src_off), Long_val(len));
  return Val_unit;
}

CAMLprim value sds_pagepool_blit_ba_to_bytes(value dst, value dst_off, value src, value src_off,
                                             value len)
{
  memcpy(Bytes_val(dst) + Long_val(dst_off),
         (const char *)Caml_ba_data_val(src) + Long_val(src_off), Long_val(len));
  return Val_unit;
}
