/* Under the sanitize profile (the root dune file defines
   ADPROM_SANITIZE there only), GUARD(&v, ...) rebinds each argument
   [v], a float array, to an exactly sized malloc copy of its block,
   header included, and UNGUARD() copies the data back and frees the
   copies: OCaml heap blocks carry no AddressSanitizer redzones, so a
   kernel overrunning one would go unseen. Elsewhere both are empty. */

#ifdef ADPROM_SANITIZE
#include <stdlib.h>
#include <string.h>

static void guard(value **args, value *orig, size_t n)
{
  for (size_t k = 0; k < n; k++) {
    const size_t bytes = Bhsize_wosize(Wosize_val(*args[k]));
    orig[k] = *args[k];
    *args[k] = Val_hp(memcpy(malloc(bytes), Hp_val(orig[k]), bytes));
  }
}

static void unguard(value **args, const value *orig, size_t n)
{
  for (size_t k = 0; k < n; k++) {
    memcpy((char *)orig[k], (char *)*args[k], Bsize_wsize(Wosize_val(orig[k])));
    free(Hp_val(*args[k]));
  }
}

#define GUARD(...)                                    \
  value *guarded[] = { __VA_ARGS__ };                 \
  value guard_orig[sizeof guarded / sizeof *guarded]; \
  guard(guarded, guard_orig, sizeof guarded / sizeof *guarded)
#define UNGUARD() unguard(guarded, guard_orig, sizeof guarded / sizeof *guarded)
#else
#define GUARD(...)
#define UNGUARD()
#endif
