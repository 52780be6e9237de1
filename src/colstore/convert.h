#ifndef TCM_COLSTORE_CONVERT_H_
#define TCM_COLSTORE_CONVERT_H_

#include <string>
#include <string_view>

#include "colstore/column_table.h"
#include "common/result.h"
#include "common/status.h"

namespace tcm {

// One-time CSV -> columnar conversion (the engine behind
// `tcm_anonymize --convert`). One bounded-memory streaming scan of the
// file with the shared CSV tokenizer types each column as it fills it:
// a column where every stripped field parses as a double is numeric,
// anything else is nominal, with labels interned into a per-column
// dictionary in first-appearance order. Only a column that meets a
// label after it has stored numbers costs a second scan, which interns
// just those columns; a column that is nominal from its first row does
// not. A non-finite number is an error only in a column that ends
// numeric. Numeric cells go through the same StripWhitespace +
// ParseStrippedDouble pair as the CSV readers, so a converted file
// replays byte-identically. Roles are all kOther — the JobSpec assigns
// roles at run time, exactly as it does for CSV inputs. IoError on
// unreadable or malformed input.
Result<ColumnTable> ConvertCsvToColumnar(const std::string& csv_path);

// Converts and writes the .tcmb image in one call.
Status ConvertCsvToTcmb(const std::string& csv_path,
                        const std::string& tcmb_path);

// True when `path` names a .tcmb file: the one extension test behind
// the tools' file inputs. Job files say input.format explicitly.
bool HasTcmbExtension(std::string_view path);

// The typed file loader of the tools (`--audit`, `tcm_profile`): a .tcmb
// path is memory-mapped with ReadTcmb, any other path is read as CSV
// with ConvertCsvToColumnar's typing. Roles are left to the caller.
Result<ColumnTable> ReadTable(const std::string& path);

}  // namespace tcm

#endif  // TCM_COLSTORE_CONVERT_H_
